"""The Section VIII outlook, implemented: remote-access detection,
RDMA-style preloading, and redirected re-specialization.

"We want to use our API to detect remote memory accesses in arbitrary
code, triggering preloading from remote nodes per RDMA, and use a second
rewritten version of the same code which redirects memory access to the
local pre-loaded data."

The three steps map onto existing machinery:

1. **detect** — rewrite the kernel with a ``memory_hook``; a sample run
   records which remote node windows it touches (no source knowledge of
   the kernel needed — "in arbitrary code");
2. **preload** — each touched window is one bulk transfer through the
   lab's interconnect (:class:`~repro.machine.link.TransferManager`),
   charged a startup latency plus a per-element cost (much cheaper per
   element than the per-access remote surcharge, like real one-sided
   bulk transfers);
3. **redirect** — the kernel is rewritten a *second* time against a
   mirror descriptor whose window base points at the local copy.  No
   code patching: redirection falls out of specializing on different
   known data, which is the elegant part of the paper's idea.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.core import (
    BREW_KNOWN, BREW_PTR_TO_KNOWN, brew_init_conf, brew_rewrite, brew_setpar,
)
from repro.machine.cpu import RunResult
from repro.machine.link import TransferReport
from repro.models.pgas import PgasLab


@dataclass
class PrefetchPlan:
    """Which remote windows a kernel execution touches."""

    ranges: list[tuple[int, int]] = field(default_factory=list)  # [lo, hi) addrs

    def covers(self, addr: int) -> bool:
        return any(lo <= addr < hi for lo, hi in self.ranges)

    @property
    def total_bytes(self) -> int:
        return sum(hi - lo for lo, hi in self.ranges)


class RdmaPrefetcher:
    """Detect → preload → redirect, on top of a :class:`PgasLab`.

    The bulk copies go through the lab's interconnect, ``lab.transfers``
    (a :class:`~repro.machine.link.TransferManager`, read at each
    preload): checksummed, retried, surcharged, and subject to the
    per-link circuit breaker.  :meth:`run_resilient` degrades
    gracefully — any failed transfer means the epoch runs the
    per-access remote path instead of the redirected mirror kernel, and
    promotion is re-tried on the next epoch once the breaker half-opens.
    """

    def __init__(self, lab: PgasLab) -> None:
        self.lab = lab
        machine = lab.machine
        # local mirror window: same stride layout as the remote window so
        # the same owner arithmetic works against a different base
        self.mirror_stride = lab.block * 8
        size = lab.nnodes * self.mirror_stride
        self.mirror_base = machine.image.malloc(size, align=16)
        # the mirror descriptor: identical except the window base/stride
        # point into the mirror and *every* rank looks "remote" so all
        # accesses go through the (now local) window path
        self.mirror_ga = machine.image.malloc(8 * 7)
        machine.image.poke(self.mirror_ga, struct.pack(
            "<7q", lab.nelems, lab.nnodes, lab.block, -1,  # rank -1: nothing local
            0, self.mirror_base, self.mirror_stride,
        ))
        self._detected: PrefetchPlan | None = None
        self._detect_kernel: int | None = None
        self._redirect_kernel: int | None = None
        self._plan_cache: dict[tuple[int, int], PrefetchPlan] = {}
        #: True only while the mirror holds verified data for the whole
        #: current plan; any failed transfer invalidates it.
        self.mirror_valid = False
        self.promotions = 0
        self.fallbacks = 0

    # ------------------------------------------------------------ detect
    def detect(self, lo: int, hi: int) -> PrefetchPlan:
        """Sample-run the instrumented kernel and record remote touches."""
        lab = self.lab
        machine = lab.machine
        touched: set[int] = set()
        remote_base = lab.remote_base

        def spy(cpu) -> None:
            addr = cpu.regs[7]
            if addr >= remote_base:
                touched.add(addr)

        hook = machine.register_host_function(
            f"rdma_spy_{id(self)}_{lo}_{hi}", spy
        )
        conf = brew_init_conf()
        brew_setpar(conf, 1, BREW_PTR_TO_KNOWN)
        brew_setpar(conf, 4, BREW_KNOWN)
        conf.memory_hook = hook
        result = brew_rewrite(
            machine, conf, "ga_sum_range",
            lab.ga_addr, lo, hi, machine.symbol("ga_get"),
        )
        if not result.ok:
            raise RuntimeError(f"detection rewrite failed: {result.message}")
        machine.call(result.entry, lab.ga_addr, lo, hi, machine.symbol("ga_get"))
        # coalesce touched addresses into per-node ranges
        ranges: list[tuple[int, int]] = []
        for addr in sorted(touched):
            if ranges and addr <= ranges[-1][1] + 64:
                ranges[-1] = (ranges[-1][0], addr + 8)
            else:
                ranges.append((addr, addr + 8))
        self._detected = PrefetchPlan(ranges)
        return self._detected

    # ----------------------------------------------------------- preload
    def preload(self, plan: PrefetchPlan) -> tuple[int, list[TransferReport]]:
        """Bulk-copy every range of ``plan`` into the mirror, one managed
        transfer each; returns the charged cycles and the reports.  Only
        transfers whose checksum verified land in the mirror;
        ``mirror_valid`` becomes True only if *every* range delivered."""
        lab = self.lab
        cost = 0
        reports: list[TransferReport] = []
        for lo, hi in plan.ranges:
            node = (lo - lab.remote_base) // lab.remote_stride
            offset = lo - (lab.remote_base + node * lab.remote_stride)
            dst = self.mirror_base + node * self.mirror_stride + offset
            report = lab.transfers.transfer(node, lo, dst, hi - lo)
            reports.append(report)
            cost += report.cycles
        self.mirror_valid = bool(reports) and all(r.ok for r in reports)
        return cost, reports

    # ---------------------------------------------------------- redirect
    def redirect_kernel(self) -> int:
        """The second rewrite: same kernel, mirror descriptor known."""
        if self._redirect_kernel is None:
            lab = self.lab
            conf = brew_init_conf()
            brew_setpar(conf, 1, BREW_PTR_TO_KNOWN)
            brew_setpar(conf, 4, BREW_KNOWN)
            result = brew_rewrite(
                lab.machine, conf, "ga_sum_range",
                self.mirror_ga, 0, 0, lab.machine.symbol("ga_get"),
            )
            if not result.ok:
                raise RuntimeError(f"redirect rewrite failed: {result.message}")
            self._redirect_kernel = result.entry
        return self._redirect_kernel

    # ------------------------------------------------------------- drive
    def run_naive(self, lo: int, hi: int) -> RunResult:
        return self.lab.sum_generic(lo, hi)

    def run_resilient(self, lo: int, hi: int) -> "ResilientRun":
        """One epoch: try promotion (detect + preload + redirected
        kernel); on any transfer failure fall back to the per-access
        remote path.  Always correct, never raises for interconnect
        faults; advances the interconnect's epoch at the end so breakers
        can cool down between calls."""
        plan = self._plan_cache.get((lo, hi))
        if plan is None:
            plan = self.detect(lo, hi)
            self._plan_cache[(lo, hi)] = plan
        cost, reports = self.preload(plan)
        attempts = sum(r.attempts for r in reports)
        failures = tuple(r.reason for r in reports if not r.ok)
        try:
            if self.mirror_valid:
                kernel = self.redirect_kernel()
                run = self.lab.machine.call(
                    kernel, self.mirror_ga, lo, hi,
                    self.lab.machine.symbol("ga_get"),
                )
                self.promotions += 1
                return ResilientRun(run, "redirected", cost, attempts, failures)
            run = self.run_naive(lo, hi)
            self.fallbacks += 1
            return ResilientRun(run, "remote-fallback", cost, attempts, failures)
        finally:
            self.lab.transfers.advance_epoch()


@dataclass
class ResilientRun:
    """Outcome of one :meth:`RdmaPrefetcher.run_resilient` epoch."""

    run: RunResult
    path: str  # "redirected" | "remote-fallback"
    transfer_cycles: int
    transfer_attempts: int
    failures: tuple[str, ...]  # taxonomy reasons of failed transfers

    @property
    def total_cycles(self) -> int:
        return self.run.cycles + self.transfer_cycles
