"""A DASH-like PGAS global-array library (paper Sec. I / V motivation).

"DASH (a C++ library providing a PGAS programming model) must translate
between global and local address space for every call to operator[] on
distributed data structures.  As a result, using this operator is not
recommended in inner-most loops, even if the developers know the data is
local to the calling node.  The runtime checks if the data is actually
local result in high overhead."

This module reproduces exactly that situation on the simulated machine:

* the global array is block-distributed over N nodes; node 0's slice
  lives in ordinary heap memory, other nodes' slices live in ``remoteK``
  segments whose accesses cost ``remote_cost`` extra cycles;
* ``ga_get`` is the library ``operator[]``: owner computation (integer
  division!), locality check, then a local or remote load;
* ``ga_sum_range`` is a user kernel that calls the accessor through a
  function pointer in its inner loop — the paper's "abstraction in the
  inner-most loop";
* ``local_sum_range`` is what a performance engineer writes by hand when
  they *know* the range is local;
* :meth:`PgasLab.rewrite_accessor` / :meth:`PgasLab.rewrite_kernel` use
  BREW to specialize away the descriptor loads and the call overhead —
  the locality check itself stays (the index is dynamic), which is why
  the rewritten version lands between generic and manual, exactly the
  gap the paper's Sec. VIII RDMA-prefetch outlook wants to close next.
"""

from __future__ import annotations

import struct

from repro.core import (
    BREW_KNOWN, BREW_PTR_TO_KNOWN, brew_init_conf, brew_setpar,
)
from repro.core.resilience import RewriteSupervisor
from repro.core.rewriter import RewriteResult
from repro.isa.costs import CostModel
from repro.machine.cpu import RunResult
from repro.machine.vm import Machine
from repro.models.lab import ServiceLab

PGAS_SOURCE = r"""
// the global-array descriptor ("pattern" in DASH terms)
struct GA {
    long nelems;
    long nnodes;
    long block;        // elements per node (block distribution)
    long myrank;
    double *localbase; // this node's slice
    long remotebase;   // address of node 0's slice in the remote window
    long remotestride; // bytes between consecutive nodes' windows
};

// operator[]: global index -> value, with locality check
noinline double ga_get(struct GA *ga, long i) {
    long owner = i / ga->block;
    long off = i - owner * ga->block;
    if (owner == ga->myrank)
        return ga->localbase[off];
    double *r = (double*)(ga->remotebase + owner * ga->remotestride + off * 8);
    return *r;
}

noinline void ga_put(struct GA *ga, long i, double v) {
    long owner = i / ga->block;
    long off = i - owner * ga->block;
    if (owner == ga->myrank) {
        ga->localbase[off] = v;
        return;
    }
    double *r = (double*)(ga->remotebase + owner * ga->remotestride + off * 8);
    *r = v;
}

// user kernel: reduce a global index range through the abstraction
typedef double (*getter_t)(struct GA*, long);

noinline double ga_sum_range(struct GA *ga, long lo, long hi, getter_t get) {
    double total = 0.0;
    for (long i = lo; i < hi; i++)
        total = total + get(ga, i);
    return total;
}

// the hand-written local version ("not recommended ... even if the
// developers know the data is local" is exactly what this avoids)
noinline double local_sum_range(double *base, long n) {
    double total = 0.0;
    for (long i = 0; i < n; i++)
        total = total + base[i];
    return total;
}
"""

#: struct GA field layout (must match the minic struct above).
_GA_FIELDS = ("nelems", "nnodes", "block", "myrank", "localbase",
              "remotebase", "remotestride")


class PgasLab(ServiceLab):
    """A simulated node-0 view of a block-distributed global array."""

    def __init__(
        self,
        nelems: int = 4096,
        nnodes: int = 4,
        remote_cost: int = 150,
        costs: CostModel | None = None,
    ) -> None:
        if nelems % nnodes:
            raise ValueError("nelems must divide evenly across nodes")
        self.nelems = nelems
        self.nnodes = nnodes
        self.block = nelems // nnodes
        self.machine = Machine(costs)
        self.machine.load(PGAS_SOURCE, unit="pgas")
        image = self.machine.image

        # node 0's slice is local heap; others are remote segments
        self.local_base = image.malloc(self.block * 8)
        self.remote_segments = [
            image.map_remote_node(node, self.block * 8, remote_cost)
            for node in range(1, nnodes)
        ]
        # the "remote window" is addressed uniformly: node k's slice sits
        # at remotebase + k*stride (matching Image.map_remote_node).  The
        # k == 0 window address is never dereferenced — the locality
        # check routes rank-0 accesses to the local slice.
        from repro.machine.image import LAYOUT

        self.remote_stride = LAYOUT.remote_stride
        self.remote_base = LAYOUT.remote_base

        self.ga_addr = image.malloc(8 * len(_GA_FIELDS))
        image.poke(self.ga_addr, struct.pack(
            "<7q", nelems, nnodes, self.block, 0, self.local_base,
            self.remote_base, self.remote_stride,
        ))
        #: Rewrites are supervised: ladder degradation on failure, then
        #: differential validation of every variant before handing it out.
        self.supervisor = RewriteSupervisor(self.machine, validation_vectors=2)
        #: Optional unreliable-interconnect model for bulk transfers
        #: (see :meth:`attach_interconnect`); None means a perfect network.
        self.transfers = None
        self.fill()

    def sum_via_service(self, lo: int, hi: int, passes: tuple[str, ...] = ()):
        """The reduction over ``[lo, hi)``, dispatched *and executed*
        through the continuously assured path: ``service.call`` samples
        warm dispatches against the original (when the attached service
        has a shadow sampler) so a silently wrong variant is withdrawn
        instead of trusted forever.  Returns the ``RunResult``."""
        conf = brew_init_conf()
        brew_setpar(conf, 1, BREW_PTR_TO_KNOWN)
        brew_setpar(conf, 4, BREW_KNOWN)
        conf.passes = passes
        return self.service.call(
            conf, "ga_sum_range",
            self.ga_addr, lo, hi, self.machine.symbol("ga_get"),
        )

    def attach_interconnect(self, *, faults=None, seed: int = 0, **options):
        """Route bulk transfers (e.g. :class:`~repro.models.rdma.
        RdmaPrefetcher` preloads) through a seeded *unreliable*
        interconnect: a :class:`~repro.machine.link.TransferManager` with
        checksums, retry/backoff and per-link circuit breakers.  Stored
        on ``self.transfers`` and returned."""
        from repro.machine.link import TransferManager

        self.transfers = TransferManager(
            self.machine, faults=faults, seed=seed, **options
        )
        return self.transfers

    # ------------------------------------------------------------- data
    def element_address(self, i: int) -> int:
        """Host-side address of global element ``i`` (oracle plumbing)."""
        owner, off = divmod(i, self.block)
        if owner == 0:
            return self.local_base + off * 8
        return self.remote_base + owner * self.remote_stride + off * 8

    def fill(self) -> None:
        for i in range(self.nelems):
            self.machine.image.poke(
                self.element_address(i), struct.pack("<d", float(i % 89) / 8.0)
            )

    def reference_sum(self, lo: int, hi: int) -> float:
        """Pure-Python oracle for the range reduction."""
        total = 0.0
        for i in range(lo, hi):
            raw = self.machine.image.peek(self.element_address(i), 8)
            total += struct.unpack("<d", raw)[0]
        return total

    # -------------------------------------------------------------- runs
    def get(self, i: int, getter: int | None = None) -> RunResult:
        fn = getter if getter is not None else self.machine.symbol("ga_get")
        return self.machine.call(fn, self.ga_addr, i)

    def sum_generic(self, lo: int, hi: int, getter: int | None = None) -> RunResult:
        fn = getter if getter is not None else self.machine.symbol("ga_get")
        return self.machine.call("ga_sum_range", self.ga_addr, lo, hi, fn)

    def sum_manual_local(self) -> RunResult:
        """Hand-written local reduction over node 0's slice."""
        return self.machine.call("local_sum_range", self.local_base, self.block)

    def sum_with_kernel(self, kernel: int, lo: int, hi: int) -> RunResult:
        return self.machine.call(kernel, self.ga_addr, lo, hi,
                                 self.machine.symbol("ga_get"))

    # --------------------------------------------------------- rewriting
    def rewrite_accessor(self, passes: tuple[str, ...] = ()) -> RewriteResult:
        """Specialize ``ga_get`` for this descriptor: every field load
        folds; the locality check stays (the index is dynamic)."""
        conf = brew_init_conf()
        brew_setpar(conf, 1, BREW_PTR_TO_KNOWN)
        conf.passes = passes
        return self.supervisor.rewrite(conf, "ga_get", self.ga_addr, 0)

    def rewrite_kernel(self, passes: tuple[str, ...] = ()) -> RewriteResult:
        """Specialize the whole reduction kernel: descriptor known,
        accessor pointer known (so the indirect call inlines away)."""
        conf = brew_init_conf()
        brew_setpar(conf, 1, BREW_PTR_TO_KNOWN)
        brew_setpar(conf, 4, BREW_KNOWN)
        conf.passes = passes
        return self.supervisor.rewrite(
            conf, "ga_sum_range",
            self.ga_addr, 0, 0, self.machine.symbol("ga_get"),
        )
