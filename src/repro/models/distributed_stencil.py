"""Distributed stencil over a PGAS matrix — the paper's introduction in
one workload.

Section I motivates the whole approach with exactly this situation: an
HPC simulation sweeps a stencil over a matrix that is *distributed*
across nodes; the productive way to write it is through a PGAS library
whose accessor translates global indices and checks locality on every
access, and that abstraction is unaffordable in the inner loop.

This model puts the pieces of this repository together:

* a 2-D matrix row-block-distributed over N nodes (node 0's rows local,
  neighbours' rows in surcharged remote segments);
* a ``dg_get`` accessor (global ``(y, x)`` → locality check → load) and
  a generic sweep that applies a runtime stencil through it — every
  interior access is local, but the rows adjacent to the partition
  boundary reach into neighbour nodes (the *halo*);
* BREW specialization of the sweep: descriptor and stencil fold away,
  the accessor inlines — the abstraction cost disappears, the halo
  traffic remains;
* halo prefetch on top (the Sec. VIII recipe): bulk-copy the two halo
  rows into a local mirror through the interconnect
  (:class:`~repro.machine.link.TransferManager`), respecialize against
  an *extended local* descriptor — the remote traffic disappears too.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.core import (
    BREW_KNOWN, BREW_PTR_TO_KNOWN, brew_init_conf, brew_rewrite, brew_setdynamic,
    brew_setpar,
)
from repro.core.rewriter import RewriteResult
from repro.machine.cpu import RunResult
from repro.machine.image import LAYOUT
from repro.machine.link import TransferManager, TransferReport
from repro.machine.vm import Machine
from repro.models.stencil import StencilSpec

DSTENCIL_SOURCE = r"""
// distributed 2-D matrix descriptor: rows block-distributed over nodes
struct DG {
    long xs;          // row length
    long ys;          // total rows
    long rowblock;    // rows per node
    long myrank;
    double *localbase;   // this node's rows (rowblock x xs doubles)
    long remotebase;     // node windows: remotebase + rank*stride
    long remotestride;
    long halobase;       // mirror rows: [0] = row above, [1] = row below
    long haloavail;      // 1 when the mirror is valid
};

// the library accessor: global (y, x) -> value
noinline double dg_get(struct DG *g, long y, long x) {
    long owner = y / g->rowblock;
    if (owner == g->myrank) {
        long off = y - owner * g->rowblock;
        return g->localbase[off * g->xs + x];
    }
    if (g->haloavail) {
        long firstrow = g->myrank * g->rowblock;
        if (y == firstrow - 1) {
            double *h = (double*)(g->halobase);
            return h[x];
        }
        if (y == firstrow + g->rowblock) {
            double *h = (double*)(g->halobase);
            return h[g->xs + x];
        }
    }
    double *r = (double*)(g->remotebase + owner * g->remotestride
                          + (y - owner * g->rowblock) * g->xs * 8 + x * 8);
    return *r;
}

// the stencil structures of the paper (Fig. 4)
struct P { double f; long dx; long dy; };
struct S { long ps; struct P p[12]; };

typedef double (*dgetter_t)(struct DG*, long, long);

// one stencil application through the PGAS accessor.  Kept as its own
// function so the rewriter can give it a different per-function
// configuration than the sweep: the sweep's loops stay rolled
// (force_unknown_results) while this inlines and fully specializes —
// the structure Sec. III.F's per-function configuration is for.
noinline double dg_apply(struct DG *g, struct S *s, long y, long x,
                         dgetter_t get) {
    double v = 0.0;
    for (long i = 0; i < s->ps; i++) {
        struct P *p = &s->p[i];
        v = v + p->f * get(g, y + p->dy, x + p->dx);
    }
    return v;
}

// sweep this node's rows, reading through the PGAS accessor and writing
// the local output slice directly (outputs are always owned locally)
noinline void dg_sweep(struct DG *g, double *out, struct S *s, dgetter_t get) {
    long firstrow = g->myrank * g->rowblock;
    for (long r = 0; r < g->rowblock; r++) {
        long y = firstrow + r;
        for (long x = 1; x < g->xs - 1; x++) {
            if (y > 0) { if (y < g->ys - 1) {
                out[r * g->xs + x] = dg_apply(g, s, y, x, get);
            } }
        }
    }
}
"""

_DG_FIELDS = 9


@dataclass
class SweepOutcome:
    """One measured sweep variant."""

    run: RunResult
    extra_cycles: int = 0  # e.g. halo transfer cost

    @property
    def total_cycles(self) -> int:
        return self.run.cycles + self.extra_cycles


@dataclass
class EpochOutcome:
    """One :meth:`DistributedStencilLab.run_resilient` epoch: the sweep
    plus how the halo exchange over the unreliable interconnect went."""

    outcome: SweepOutcome
    path: str  # "halo" | "remote-fallback"
    transfer_attempts: int
    failures: tuple[str, ...]  # taxonomy reasons of failed transfers


class DistributedStencilLab:
    """Node-0's view of the distributed stencil computation."""

    def __init__(
        self,
        xs: int = 32,
        rows_per_node: int = 8,
        nnodes: int = 3,
        remote_cost: int = 150,
        spec: StencilSpec | None = None,
    ) -> None:
        self.xs = xs
        self.rowblock = rows_per_node
        self.nnodes = nnodes
        self.ys = rows_per_node * nnodes
        self.spec = spec or StencilSpec.five_point()
        self.machine = Machine()
        self.machine.load(DSTENCIL_SOURCE, unit="dstencil")
        image = self.machine.image

        row_bytes = xs * 8
        self.local = image.malloc(rows_per_node * row_bytes)
        self.out = image.malloc(rows_per_node * row_bytes)
        self.remote_segments = [
            image.map_remote_node(node, rows_per_node * row_bytes, remote_cost)
            for node in range(nnodes)
            if node != 0
        ]
        self.remote_base = LAYOUT.remote_base
        self.remote_stride = LAYOUT.remote_stride
        self.halo = image.malloc(2 * row_bytes)
        self.s_addr = image.malloc(len(self.spec.pack()))
        image.poke(self.s_addr, self.spec.pack())
        self.myrank = 0
        self.dg_addr = image.malloc(8 * _DG_FIELDS)
        self._write_descriptor(halo_avail=False)
        self.fill()
        #: The interconnect every halo exchange crosses.  It starts
        #: clean; replace it with a
        #: ``TransferManager(self.machine, faults=..., seed=...)`` to
        #: model a faulty network.
        self.transfers = TransferManager(self.machine)
        self._guarded: RewriteResult | None = None
        self.promotions = 0
        self.fallbacks = 0

    # ------------------------------------------------------------- set-up
    def _write_descriptor(self, halo_avail: bool) -> None:
        self.machine.image.poke(self.dg_addr, struct.pack(
            "<9q", self.xs, self.ys, self.rowblock, self.myrank,
            self.local, self.remote_base, self.remote_stride,
            self.halo, 1 if halo_avail else 0,
        ))

    def row_address(self, y: int) -> int:
        """Host-side address of global row ``y``."""
        owner, off = divmod(y, self.rowblock)
        if owner == self.myrank:
            return self.local + off * self.xs * 8
        return self.remote_base + owner * self.remote_stride + off * self.xs * 8

    def fill(self) -> None:
        """Deterministic global contents."""
        for y in range(self.ys):
            row = bytes()
            for x in range(self.xs):
                row += struct.pack("<d", ((x * 13 + y * 7) % 101) / 50.0)
            self.machine.image.poke(self.row_address(y), row)

    def value_at(self, y: int, x: int) -> float:
        raw = self.machine.image.peek(self.row_address(y) + x * 8, 8)
        return struct.unpack("<d", raw)[0]

    # -------------------------------------------------------------- oracle
    def reference_out(self) -> list[float]:
        """Expected output slice for node 0 (zeros where not computed)."""
        out = [0.0] * (self.rowblock * self.xs)
        first = self.myrank * self.rowblock
        for r in range(self.rowblock):
            y = first + r
            if not (0 < y < self.ys - 1):
                continue
            for x in range(1, self.xs - 1):
                out[r * self.xs + x] = sum(
                    f * self.value_at(y + dy, x + dx)
                    for f, dx, dy in self.spec.points
                )
        return out

    def read_out(self) -> list[float]:
        """The computed output slice."""
        raw = self.machine.image.peek(self.out, self.rowblock * self.xs * 8)
        return list(struct.unpack(f"<{self.rowblock * self.xs}d", raw))

    def clear_out(self) -> None:
        """Zero the output slice between runs."""
        self.machine.image.poke(self.out, b"\x00" * (self.rowblock * self.xs * 8))

    # ---------------------------------------------------------------- runs
    def run_generic(self) -> SweepOutcome:
        """The productive-but-slow version: accessor via pointer."""
        self.clear_out()
        run = self.machine.call(
            "dg_sweep", self.dg_addr, self.out, self.s_addr,
            self.machine.symbol("dg_get"),
        )
        return SweepOutcome(run)

    def rewrite_sweep(self, halo: bool = False) -> RewriteResult:
        """Specialize the whole sweep: descriptor, stencil and accessor
        pointer known; the accessor inlines and its descriptor loads and
        stencil interpretation fold away."""
        self._write_descriptor(halo_avail=halo)
        conf = brew_init_conf()
        brew_setpar(conf, 1, BREW_PTR_TO_KNOWN)   # descriptor
        brew_setpar(conf, 3, BREW_PTR_TO_KNOWN)   # stencil
        brew_setpar(conf, 4, BREW_KNOWN)          # accessor pointer
        # the sweep's own loops stay rolled; dg_apply (inlined, default
        # config) unrolls over the now-known stencil — the paper's
        # per-function configuration at work
        conf.set_function(None, force_unknown_results=True)
        return brew_rewrite(
            self.machine, conf, "dg_sweep",
            self.dg_addr, self.out, self.s_addr, self.machine.symbol("dg_get"),
        )

    def run_rewritten(self, result: RewriteResult) -> SweepOutcome:
        """Run a previously specialized sweep."""
        self.clear_out()
        run = self.machine.call(
            result.entry, self.dg_addr, self.out, self.s_addr,
            self.machine.symbol("dg_get"),
        )
        return SweepOutcome(run)

    # ------------------------------------------------------------ halo path
    def exchange_halo(self) -> tuple[int, list[TransferReport]]:
        """Bulk-copy the neighbour rows this node's sweep needs into the
        halo mirror; returns the charged cycles and the reports.  Each
        row is one managed transfer to its owner's link; only
        checksum-verified rows land in the mirror."""
        first = self.myrank * self.rowblock
        row_bytes = self.xs * 8
        cost = 0
        reports: list[TransferReport] = []
        wanted = []
        if first - 1 >= 0:
            wanted.append((first - 1, self.halo))
        last = first + self.rowblock
        if last <= self.ys - 1:
            wanted.append((last, self.halo + row_bytes))
        for y, dst in wanted:
            owner = y // self.rowblock
            report = self.transfers.transfer(
                owner, self.row_address(y), dst, row_bytes
            )
            reports.append(report)
            cost += report.cycles
        return cost, reports

    def run_halo_prefetched(self) -> tuple[SweepOutcome, RewriteResult]:
        """Exchange halos, then run a sweep respecialized against the
        halo-enabled descriptor: zero per-access remote traffic.  When a
        halo row fails to deliver the mirror is stale, so the sweep is
        the plain specialized one (:meth:`rewrite_sweep`), which reads
        the neighbour rows remotely instead."""
        cost, reports = self.exchange_halo()
        self.transfers.advance_epoch()
        result = self.rewrite_sweep(
            halo=bool(reports) and all(r.ok for r in reports)
        )
        if not result.ok:
            raise RuntimeError(f"halo respecialization failed: {result.message}")
        outcome = self.run_rewritten(result)
        outcome.extra_cycles = cost
        return outcome, result

    # ------------------------------------------------------- resilient path
    @property
    def haloavail_addr(self) -> int:
        """Address of the descriptor's ``haloavail`` flag (field 9)."""
        return self.dg_addr + 64

    def set_halo_avail(self, avail: bool) -> None:
        """Flip the runtime halo-validity flag the guarded sweep tests."""
        self.machine.image.poke(
            self.haloavail_addr, struct.pack("<q", 1 if avail else 0)
        )

    def rewrite_sweep_guarded(self, memory_hook: int | None = None) -> RewriteResult:
        """The degradation-ready sweep: like ``rewrite_sweep(halo=True)``
        but with the descriptor's ``haloavail`` cell marked *dynamic*
        (``brew_setdynamic`` — "makeDynamic for data"), so the variant
        keeps the ``if (g->haloavail)`` compare live.  One specialized
        kernel then serves both paths at runtime: flag set → halo mirror
        (zero remote traffic); flag clear → per-access remote path
        (correct but surcharged).  Degrading is one flag write, not a
        respecialization — the graceful-fallback story of Sec. III.G
        applied to data instead of code."""
        self._write_descriptor(halo_avail=True)
        conf = brew_init_conf()
        brew_setpar(conf, 1, BREW_PTR_TO_KNOWN)   # descriptor
        brew_setpar(conf, 3, BREW_PTR_TO_KNOWN)   # stencil
        brew_setpar(conf, 4, BREW_KNOWN)          # accessor pointer
        conf.set_function(None, force_unknown_results=True)
        brew_setdynamic(conf, self.haloavail_addr)
        if memory_hook is not None:
            conf.memory_hook = memory_hook
        return brew_rewrite(
            self.machine, conf, "dg_sweep",
            self.dg_addr, self.out, self.s_addr, self.machine.symbol("dg_get"),
        )

    def run_resilient(self) -> EpochOutcome:
        """One fault-tolerant epoch: attempt the halo exchange, set the
        ``haloavail`` flag to match, run the *guarded* sweep.  A failed
        exchange (or an open breaker) degrades to the per-access remote
        path inside the same specialized kernel; the next epoch retries
        the exchange, so the model re-promotes itself once the breaker
        half-opens and the network delivers again.  Never raises for
        interconnect faults and the output is correct on every path."""
        if self._guarded is None:
            self._guarded = self.rewrite_sweep_guarded()
        cost, reports = self.exchange_halo()
        failures = tuple(r.reason for r in reports if not r.ok)
        halo_ok = bool(reports) and all(r.ok for r in reports)
        self.set_halo_avail(halo_ok)
        try:
            if self._guarded.ok:
                outcome = self.run_rewritten(self._guarded)
            else:
                # graceful ladder: guarded specialization failed, the
                # generic accessor-pointer sweep is always available
                outcome = self.run_generic()
            outcome.extra_cycles = cost
            if halo_ok:
                self.promotions += 1
                path = "halo"
            else:
                self.fallbacks += 1
                path = "remote-fallback"
            return EpochOutcome(
                outcome, path,
                sum(r.attempts for r in reports), failures,
            )
        finally:
            self.transfers.advance_epoch()
