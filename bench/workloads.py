"""The benchmark's four workloads, driven through the library's public API.

Each workload is a closed loop with one client: every caller in this
system waits for its reply, so the next op is sent only after the last
one returned.  A workload builds its program state in :meth:`setup`,
derives op ``i``'s input from the seed alone in :meth:`next_input`, runs
the user-visible op in :meth:`op` (the timed latency), and does any
housekeeping a deployment runs between requests in :meth:`settle`
(counted in throughput, not in latency).  :meth:`check` compares the
answer with a pure-Python oracle; the runner calls it outside the timed
region.  See ``README.md`` for why each workload was chosen.
"""

from __future__ import annotations

import math
import random
import struct
from collections import Counter

from repro.core import BREW_KNOWN, brew_init_conf, brew_setpar
from repro.errors import FAILURE_REASONS
from repro.models.pgas import PgasLab
from repro.models.stencil import StencilLab, StencilSpec
from repro.service import RewriteFabric

#: The benchmark's own copy of EXT-7's fabric program.
FABRIC_SOURCE = """
noinline long poly(long x, long k) { return x * k + k; }
noinline long mix(long x, long k) { return x * x + k; }
"""
FABRIC_REFS = {"poly": lambda x, k: x * k + k, "mix": lambda x, k: x * x + k}

#: Every outcome ``RewriteFabric.request`` documents.
OUTCOMES = frozenset({"warm", "cold", "coalesced", "shed", "degraded"})

#: Interpretation's share of an op's time, by kind of op; the rest is
#: bulk copying.  ``speed.py`` scales the op's time by this blend of the
#: probe's two slowdowns.  Each value is the one that made the spread of
#: that kind's times over eight runs on a shared host smallest (README.md).
INTERPRETING = 1.0     # guest execution in the emulator
DISPATCHING = 0.85     # key derivation, hashing, table lookups, short guest runs
RESPECIALIZING = 0.5   # validation gate (snapshot copies, test runs), then a sweep
SHADOWING = 0.0        # a shadow-sampled call: nearly all snapshot copies
SETTING_UP = 0.3       # compile, machine build, the first cold publish


def ledger_counters(machines=(), services=(), supervisors=(), fabric=None) -> dict:
    """Sums of the public ``stats()`` counters the per-layer ledger reads."""
    c = Counter()
    for m in machines:
        if m.jit is not None:
            for key, value in m.jit.stats().items():
                c["jit." + key] += value
    for svc in services:
        st = svc.stats()
        c["svc.requests"] += st["requests"]
        c["svc.warm_hits"] += st["warm_hits"]
        c["shadow.samples"] += st["shadow_samples"]
        st = svc.manager.stats()
        c["mgr.hits"] += st["hits"]
        c["mgr.misses"] += st["misses"]
    for sup in supervisors:
        st = sup.stats()
        c["sup.rewrites"] += st["rewrites"]
        c["sup.attempts"] += st["attempts"]
    if fabric is not None:
        st = fabric.stats()
        c["fab.requests"] += st["requests"]
        c["fab.warm_hits"] += st["warm_hits"]
        c["fab.tenant_shed"] += st["tenant_shed"]
    return c


class Workload:
    """One seeded traffic mix; subclasses fill in the hooks."""

    name = ""
    #: The fixed number of ops one run times, sized so that the timed
    #: loop takes about ``run_seconds`` of BENCHMARK.json on a 2-vCPU
    #: Xeon.  Counts and sizes are then the same for a fast and a slow
    #: program, so only the times differ.
    ops = 1

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def setup(self) -> None:
        raise NotImplementedError

    def next_input(self, i: int):
        return None

    def op(self, inp):
        raise NotImplementedError

    def settle(self, i: int) -> None:
        """Housekeeping after op ``i`` (part of throughput, not latency)."""

    def check(self, i: int, inp, out) -> bool | None:
        """True/False when op ``i`` was checked, None when it was not."""
        return None

    def exact(self, out) -> dict[str, int]:
        """Deterministic per-op counts, summed over the run."""
        return {}

    def interp_share(self, i: int, inp, out) -> float:
        """Interpretation's share of op ``i``'s time; called once per
        completed op, outside the timed region."""
        raise NotImplementedError

    def counters(self) -> dict:
        """The :func:`ledger_counters` of this workload's objects."""
        raise NotImplementedError


def _grid_close(want: list[float], got: list[float]) -> bool:
    """Oracle comparison, relative to the grid's magnitude (values grow
    or shrink geometrically between resets, depending on the stencil)."""
    scale = max(1e-300, max(abs(v) for v in want))
    return all(math.isclose(w, g, rel_tol=1e-12, abs_tol=1e-12 * scale)
               for w, g in zip(want, got))


class StencilSweep(Workload):
    """Sec. V application loop: dispatch ``apply`` through the service,
    then one ``sweep`` through the function pointer it returned."""

    name = "stencil-sweep"
    ops = 256
    #: Every this many sweeps the matrices return to the seeded initial
    #: grid, so values stay far from overflow.
    reset_every = 64
    check_every = 10

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.grid0 = [self.rng.random() for _ in range(48 * 48)]

    def setup(self) -> None:
        lab = StencilLab(48, 48)
        lab.machine.enable_jit(trace=True)
        lab.attach_service()
        lab.apply_via_service()
        lab.service.drain()  # the first cold publish
        self.lab = lab
        self._reset()
        self.op(None)  # one warm op fills the JIT caches
        self._reset()

    def _reset(self) -> None:
        lab = self.lab
        raw = struct.pack(f"<{len(self.grid0)}d", *self.grid0)
        lab.machine.image.poke(lab.m1, raw)
        lab.machine.image.poke(lab.m2, raw)
        self.src, self.dst = lab.m1, lab.m2

    def _checked(self, i: int) -> bool:
        return i % self.check_every == 0

    def next_input(self, i: int):
        if i and i % self.reset_every == 0:
            self._reset()
        # the oracle needs the grid the sweep will read
        return self.lab.read_matrix(self.src) if self._checked(i) else None

    def _sweep(self, entry: int):
        lab = self.lab
        run = lab.machine.call(
            "sweep", self.src, self.dst, lab.xs, lab.ys, lab.s_addr, entry
        )
        self.src, self.dst = self.dst, self.src
        return run

    def op(self, inp):
        return self._sweep(self.lab.apply_via_service())

    def check(self, i: int, inp, out) -> bool | None:
        if inp is None:
            return None
        # the sweep wrote the matrix that is now the source
        return _grid_close(self.lab.reference_sweep(inp),
                           self.lab.read_matrix(self.src))

    def exact(self, out) -> dict[str, int]:
        return {"guest_cycles": out.cycles}

    def interp_share(self, i: int, inp, out) -> float:
        return INTERPRETING

    def counters(self) -> dict:
        lab = self.lab
        return ledger_counters([lab.machine], [lab.service], [lab.supervisor])


class StencilRetune(StencilSweep):
    """Sec. VI writes beside reads: every ``period``-th op writes a new
    coefficient set into the stencil's known memory, invalidates, and
    respecializes before its sweep."""

    name = "stencil-retune"
    #: A multiple of ``period * sets``, so every seed runs each
    #: coefficient set equally often.
    ops = 128
    period = 4
    #: Coefficient sets; set ``j`` has ``2 + j`` points, and the run
    #: cycles through all of them in a seeded order, so every run does
    #: the same mix of sweep sizes whatever the seed.
    sets = 8

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        offsets = [(dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
        self.specs = []
        for j in range(self.sets):
            n = 2 + j
            points = [
                (self.rng.choice((-1, 1)) * self.rng.choice((1, 2, 3)) / (2 * n),
                 dx, dy)
                for dx, dy in self.rng.sample(offsets, n)
            ]
            self.specs.append(StencilSpec(points))
        self.rng.shuffle(self.specs)

    def _checked(self, i: int) -> bool:
        return i % self.period == 0

    def next_input(self, i: int):
        grid = super().next_input(i)
        if i % self.period:
            return None
        return self.specs[(i // self.period) % self.sets], grid

    def op(self, inp):
        lab = self.lab
        if inp is None:
            return self._sweep(lab.apply_via_service()), None
        spec = inp[0]
        lab.spec = spec
        packed = spec.pack()
        lab.machine.image.poke(lab.s_addr, packed)
        lab.service.manager.invalidate_memory(lab.s_addr, lab.s_addr + len(packed))
        lab.apply_via_service()  # cold miss: the original, rewrite queued
        lab.service.drain()
        entry = lab.apply_via_service()
        return self._sweep(entry), entry

    def check(self, i: int, inp, out) -> bool | None:
        if inp is None:
            return None
        run, entry = out
        if entry == self.lab.machine.symbol("apply"):
            return False  # the respecialization was not served
        return super().check(i, inp[1], run)

    def exact(self, out) -> dict[str, int]:
        return {"guest_cycles": out[0].cycles}

    def interp_share(self, i: int, inp, out) -> float:
        return INTERPRETING if inp is None else RESPECIALIZING


class PgasCall(Workload):
    """Fine-grained PGAS reductions through the assured dispatch path."""

    name = "pgas-call"
    ops = 2400
    max_len = 32

    def setup(self) -> None:
        lab = PgasLab(4096, 4)
        lab.machine.enable_jit(trace=True)
        lab.attach_service(shadow_interval=8)
        lab.sum_via_service(0, 1)
        lab.service.drain()  # the first cold publish
        self.lab = lab
        self.op((0, 1))  # one warm op fills the JIT caches
        self.shadow_samples = lab.service.stats()["shadow_samples"]

    def next_input(self, i: int):
        n = self.rng.randint(1, self.max_len)
        lo = self.rng.randrange(0, self.lab.nelems - n + 1)
        return lo, lo + n

    def op(self, inp):
        return self.lab.sum_via_service(*inp)

    def check(self, i: int, inp, out) -> bool | None:
        return abs(out.float_return - self.lab.reference_sum(*inp)) <= 1e-9

    def exact(self, out) -> dict[str, int]:
        return {"guest_cycles": out.cycles}

    def interp_share(self, i: int, inp, out) -> float:
        samples = self.lab.service.stats()["shadow_samples"]
        sampled, self.shadow_samples = samples > self.shadow_samples, samples
        return SHADOWING if sampled else DISPATCHING

    def counters(self) -> dict:
        lab = self.lab
        return ledger_counters([lab.machine], [lab.service], [lab.supervisor])


class FabricChurn(Workload):
    """A multi-tenant request stream through a 4-shard rewrite fabric."""

    name = "fabric-churn"
    ops = 120_000
    tenants = ("t0", "t1", "t2", "t3")
    hot_keys = 256
    alpha = 1.1
    novel_share = 0.05
    pump_every = 4
    check_every_warm = 50

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.novel = 0
        self.warm_seen = 0

    def setup(self) -> None:
        self.fab = RewriteFabric(FABRIC_SOURCE, shards=4)
        first = ("t0", self._conf(), "poly", 1, 3)
        self.fab.request(*first)
        while self.fab.request(*first).outcome != "warm":
            self.fab.pump()  # the first cold publish

    @staticmethod
    def _conf():
        conf = brew_init_conf()
        brew_setpar(conf, 2, BREW_KNOWN)
        return conf

    def next_input(self, i: int):
        rng = self.rng
        tenant = self.tenants[rng.randrange(len(self.tenants))]
        if rng.random() < self.novel_share:
            self.novel += 1  # a key no earlier request used
            fn, k = ("poly", "mix")[self.novel % 2], 1000 + self.novel
        else:
            rank = (int(rng.paretovariate(self.alpha)) - 1) % self.hot_keys
            fn, k = ("poly", "mix")[rank % 2], 3 + rank // 2
        return tenant, self._conf(), fn, rng.randrange(1 << 16), k

    def op(self, inp):
        return self.fab.request(*inp)

    def settle(self, i: int) -> None:
        if i % self.pump_every == self.pump_every - 1:
            self.fab.pump()

    def check(self, i: int, inp, out) -> bool | None:
        if out.outcome not in OUTCOMES:
            return False
        if out.reason is not None and out.reason not in FAILURE_REASONS:
            return False
        if out.outcome != "warm":
            return True
        self.warm_seen += 1
        if self.warm_seen % self.check_every_warm:
            return True
        _, _, fn, x, k = inp
        run = out.shard_ref.machine.call(out.entry, x, k)
        return run.int_return == FABRIC_REFS[fn](x, k)

    def exact(self, out) -> dict[str, int]:
        return {"warm": out.outcome == "warm"}

    def interp_share(self, i: int, inp, out) -> float:
        return DISPATCHING

    def counters(self) -> dict:
        fab = self.fab
        return ledger_counters(
            [s.machine for s in fab.shards] + [fab.router],
            [s.service for s in fab.shards],
            fabric=fab,
        )


WORKLOADS = {w.name: w for w in (StencilSweep, PgasCall, FabricChurn, StencilRetune)}
