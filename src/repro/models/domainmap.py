"""Chapel-style domain maps with respecialization (paper Sec. VI).

"The PGAS language Chapel uses so called domain maps to describe the
distribution of data among systems.  The distribution is typically not
changed during runtime or only at certain points (e.g. load balancing).
Binary specialization can be used to optimize accesses using the domain
map and a runtime system could trigger a new specialization whenever the
domain map is changed.  That way, such changes would be transparent to
the user."

This module implements exactly that runtime-system pattern:

* a ``DomainMap`` descriptor supports block and cyclic distributions;
  the generic ``dm_index`` accessor interprets it on every access;
* :class:`DomainMapRuntime` keeps a *dispatch slot* (a function pointer
  cell in data memory) user code calls through; ``respecialize()``
  rewrites the accessor for the current descriptor and swaps the slot —
  user code never changes, redistribution is transparent;
* after ``redistribute()`` the old specialized code is stale, so the
  runtime re-runs specialization — the paper's envisioned trigger.
"""

from __future__ import annotations

import struct

from repro.core import (
    BREW_PTR_TO_KNOWN, brew_init_conf, brew_setpar,
)
from repro.core.resilience import RewriteSupervisor
from repro.core.rewriter import RewriteResult
from repro.machine.cpu import RunResult
from repro.machine.vm import Machine

DOMAINMAP_SOURCE = r"""
// distribution descriptor: one of
//   kind == 0: block   (owner = i / block, offset = i % block)
//   kind == 1: cyclic  (owner = i % nnodes, offset = i / nnodes)
struct DomainMap {
    long kind;
    long nnodes;
    long block;
    long base;      // storage base address
    long stride;    // bytes between node slices
};

// generic accessor: interprets the descriptor on every access
noinline double dm_read(struct DomainMap *dm, long i) {
    long owner;
    long off;
    if (dm->kind) {
        owner = i % dm->nnodes;
        off = i / dm->nnodes;
    } else {
        owner = i / dm->block;
        off = i - owner * dm->block;
    }
    double *p = (double*)(dm->base + owner * dm->stride + off * 8);
    return *p;
}

noinline void dm_write(struct DomainMap *dm, long i, double v) {
    long owner;
    long off;
    if (dm->kind) {
        owner = i % dm->nnodes;
        off = i / dm->nnodes;
    } else {
        owner = i / dm->block;
        off = i - owner * dm->block;
    }
    double *p = (double*)(dm->base + owner * dm->stride + off * 8);
    *p = v;
}

// user kernel: reads through whatever accessor the runtime installed
typedef double (*reader_t)(struct DomainMap*, long);

long reader_slot = 0;   // the dispatch slot the runtime retargets

noinline double dm_sum(struct DomainMap *dm, long n) {
    reader_t get = (reader_t)reader_slot;
    double total = 0.0;
    for (long i = 0; i < n; i++)
        total = total + get(dm, i);
    return total;
}
"""

BLOCK, CYCLIC = 0, 1


class DomainMapRuntime:
    """The runtime system of Sec. VI: owns the descriptor, storage, the
    dispatch slot, and the respecialize-on-redistribute policy."""

    def __init__(self, nelems: int = 256, nnodes: int = 4, remote_cost: int = 100) -> None:
        if nelems % nnodes:
            raise ValueError("nelems must divide evenly across nodes")
        self.nelems = nelems
        self.nnodes = nnodes
        self.machine = Machine()
        self.machine.load(DOMAINMAP_SOURCE, unit="domainmap")
        image = self.machine.image
        per_node = nelems // nnodes
        # node 0 slice local, others remote (as in the PGAS model)
        from repro.machine.image import LAYOUT

        self.stride = LAYOUT.remote_stride
        self.base = LAYOUT.remote_base
        self.local = image.malloc(per_node * 8)
        self.segments = [
            image.map_remote_node(node, per_node * 8, remote_cost)
            for node in range(1, nnodes)
        ]
        # uniform window: give the descriptor a base such that node 0 maps
        # to the local slice... a simulated trick is overkill here; the
        # domain-map study only needs consistent storage, so *all* slices
        # live in the remote window and node 0's is simply cheap.
        self.seg0 = image.map_remote_node(0, per_node * 8, 0)
        self.kind = BLOCK
        self.dm_addr = image.malloc(8 * 5)
        self._write_descriptor()
        self.fill()
        self.slot_addr = image.symbol("reader_slot")
        self._install(self.machine.symbol("dm_read"))
        self.specialized: RewriteResult | None = None
        self.respecialize_count = 0
        #: Respecializations that terminally failed (slot kept on the
        #: original accessor) — the runtime's fallback-rate numerator.
        self.fallback_count = 0
        #: Supervised rewrites: ladder + differential validation.
        self.supervisor = RewriteSupervisor(self.machine, validation_vectors=2)

    # ----------------------------------------------------------- plumbing
    def _write_descriptor(self) -> None:
        per_node = self.nelems // self.nnodes
        self.machine.image.poke(
            self.dm_addr,
            struct.pack("<5q", self.kind, self.nnodes, per_node, self.base, self.stride),
        )

    def _install(self, fn_addr: int) -> None:
        self.machine.memory.write_u64(self.slot_addr, fn_addr)

    def element_address(self, i: int) -> int:
        """Storage address of logical element ``i`` under the current map."""
        per_node = self.nelems // self.nnodes
        if self.kind == CYCLIC:
            owner, off = i % self.nnodes, i // self.nnodes
        else:
            owner, off = divmod(i, per_node)
        return self.base + owner * self.stride + off * 8

    def fill(self) -> None:
        """Element i holds f(i) regardless of distribution."""
        for i in range(self.nelems):
            self.machine.image.poke(
                self.element_address(i), struct.pack("<d", (i * 7 % 31) / 4.0)
            )

    def reference_sum(self, n: int) -> float:
        return sum((i * 7 % 31) / 4.0 for i in range(n))

    # -------------------------------------------------------------- api
    def sum(self, n: int | None = None) -> RunResult:
        return self.machine.call("dm_sum", self.dm_addr, n or self.nelems)

    def respecialize(self) -> RewriteResult:
        """Rewrite the accessor for the current descriptor and retarget
        the dispatch slot (transparent to user code)."""
        conf = brew_init_conf()
        brew_setpar(conf, 1, BREW_PTR_TO_KNOWN)
        result = self.supervisor.rewrite(conf, "dm_read", self.dm_addr, 0)
        self._install(result.entry_or_original)
        if result.ok:
            self.specialized = result
        else:
            self.fallback_count += 1
        self.respecialize_count += 1
        return result

    def redistribute(self, kind: int) -> None:
        """Switch distribution (data is physically re-laid-out), then
        respecialize — the Sec. VI trigger."""
        values = [
            struct.unpack("<d", self.machine.image.peek(self.element_address(i), 8))[0]
            for i in range(self.nelems)
        ]
        self.kind = kind
        self._write_descriptor()
        for i, value in enumerate(values):
            self.machine.image.poke(self.element_address(i), struct.pack("<d", value))
        self.respecialize()

    def use_generic(self) -> None:
        self._install(self.machine.symbol("dm_read"))
