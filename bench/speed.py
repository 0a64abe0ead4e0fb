"""Machine-speed calibration for the benchmark's timings.

The benchmark is meant to run on small shared hosts, where the speed of
the processor changes by up to two times within seconds as other tenants
come and go on the same cores.  A time measured in a slow phase says
more about the neighbours than about the program.  So the runner
interleaves a fixed probe with the ops and reports every time scaled to
a reference speed: the time the op would have taken on a machine where
the probe's two parts take :data:`REF_CPU_NS` and :data:`REF_MEM_NS`.

The probe has two parts, because a shared host slows two kinds of work
by different amounts:

- interpretation: a Python loop of integer arithmetic, byte decoding and
  dict stores, the kind of work the guest emulator and the rewriter do;
- bulk copying: one 8 MiB ``bytes`` copy, the kind of work the snapshot
  copies of shadow sampling and of the validation gate do.

Each op states the share of its time that is interpretation (see
``Workload.interp_share``), and its time is divided by that blend of
the two parts' slowdowns.  The probe is the benchmark's own code and
calls nothing in the program, so a change to the program moves the
scaled times just as it moves the wall-clock ones.
"""

from __future__ import annotations

import bisect
import gc
import time

#: The probe parts' times on the reference machine: about their times
#: in the fast phases of the 2-vCPU Xeon host the benchmark was sized on.
REF_CPU_NS = 1_000_000
REF_MEM_NS = 1_250_000
#: A probe runs between two ops once this long has passed since the last.
INTERVAL_NS = 50_000_000

_WORDS = bytes(range(256)) * 64
_BULK = bytearray(8 << 20)


def _interpret(n: int = 1500) -> int:
    acc, seen, words = 0, {}, _WORDS
    for i in range(n):
        j = (i * 8) & 0x3FF8
        v = int.from_bytes(words[j:j + 8], "little")
        acc = (acc * 31 + v + (i ^ (acc >> 7))) & 0xFFFF_FFFF_FFFF_FFFF
        seen[i & 255] = acc
    return acc


def _copy() -> int:
    return len(bytes(_BULK))


class SpeedProbe:
    """Samples the machine's speed between timed intervals.

    Call :meth:`sample` before the first interval and after the last, and
    :meth:`maybe_sample` between intervals.  An interval that began
    between two samples is scaled by their mean slowdowns.
    """

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self.clock = clock
        self.at: list[int] = []
        self.cpu: list[float] = []   # slowdown of interpretation, 1 = reference
        self.mem: list[float] = []   # slowdown of bulk copying

    def _time(self, part) -> int:
        t0 = self.clock()
        part()
        return self.clock() - t0

    def sample(self) -> None:
        """Time each part twice and keep the faster, so that a collection
        of the program's garbage or a preemption does not count as a
        slow machine."""
        self.at.append(self.clock())
        collecting = gc.isenabled()
        gc.disable()
        try:
            cpu = min(self._time(_interpret), self._time(_interpret))
            mem = min(self._time(_copy), self._time(_copy))
        finally:
            if collecting:
                gc.enable()
        self.cpu.append(cpu / REF_CPU_NS)
        self.mem.append(mem / REF_MEM_NS)

    def maybe_sample(self) -> None:
        if self.clock() - self.at[-1] >= INTERVAL_NS:
            self.sample()

    def slowdown(self, t: int, interp_share: float) -> float:
        """How much slower than the reference an interval that began at
        ``t`` ran, for work that is ``interp_share`` interpretation."""
        k = bisect.bisect(self.at, t)
        lo, hi = max(k - 1, 0), min(k, len(self.at) - 1)
        cpu = (self.cpu[lo] + self.cpu[hi]) / 2
        mem = (self.mem[lo] + self.mem[hi]) / 2
        return interp_share * cpu + (1 - interp_share) * mem

    def scale(self, t: int, ns: float, interp_share: float) -> float:
        """``ns`` measured from ``t``, as it would read at the reference speed."""
        return ns / self.slowdown(t, interp_share)
