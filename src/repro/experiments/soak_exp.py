"""EXT-5: continuous-assurance soak (beyond-paper extension).

The paper's correctness story ends at rewrite time: fall back to the
original when the rewriter gives up (Sec. III.G).  PR-1 added a
pre-publication differential gate; this experiment attacks the residual
risk the x86-64 rewriter evaluations document — variants that pass every
pre-publication check and *still* compute the wrong thing — plus the two
operational hazards a production service meets: restarts (all cached
state lost) and overload (unbounded rewrite queues).  Three phases, all
seeded and deterministic:

* **Soak with seeded miscompile injection** — a workload hammers three
  cache keys through the assured ``service.call`` path while, at seeded
  call indices, a published variant is silently replaced with a wrong
  body (``*_evil`` twins — off-by-one results, the nastiest escape
  class: plausible, quiet, wrong).  Checks: every injected miscompile
  is detected by the shadow sampler within one sampling interval of
  that key's calls, the variant is withdrawn + quarantined, a minimized
  repro is recorded, and **zero** wrong results are delivered after
  withdrawal; quarantined keys later re-admit through a
  shadow-validated probation call.  The phase runs twice and must
  produce **bit-for-bit identical** metrics snapshots.

* **Kill/restart mid-soak** — the manager state is snapshotted with one
  record deliberately bit-rotted (the ``snapshot`` fault class flips a
  byte after the CRC is computed), a fresh machine restores it: the
  corrupt record is rejected (``snapshot-corrupt``), every other entry
  comes back warm **on probation**, and the continued soak re-admits
  them through shadow-validated calls with zero wrong answers.

* **Overload** — a bounded queue floods with distinct keys and must
  shed deterministically (``service-shed``); warm-hit dispatch must
  stay within the EXT-4 baseline bound (≤ 5 % of a synchronous
  rewrite), i.e. assurance does not tax the warm path.
"""

from __future__ import annotations

import random
import tempfile
import time
from pathlib import Path

from repro.core import brew_init_conf, brew_rewrite, brew_setpar, BREW_KNOWN
from repro.core.manager import SpecializationManager
from repro.experiments.harness import Experiment, Row
from repro.machine.vm import Machine
from repro.obs import Metrics
from repro.service import RewriteService
from repro.testing import FaultInjector

#: The fixed campaign seed CI reproduces bit-for-bit.
SOAK_SEED = 1105

#: Steady-state shadow sampling interval (the detection-latency bound).
SHADOW_INTERVAL = 6

#: Soak length (calls through ``service.call``) and injected miscompiles.
SOAK_CALLS = 240
SOAK_INJECTIONS = 3

SOAK_SOURCE = """
noinline long poly(long x, long k) { return x * k + k; }
noinline long mix(long x, long k) { return x * x + k; }
noinline long poly_evil(long x, long k) { return x * k + k + 1; }
noinline long mix_evil(long x, long k) { return x * x + k + 1; }
"""

#: The soaked cache keys: (function, known k, python reference).
SOAK_KEYS = (
    ("poly", 3), ("poly", 5), ("mix", 7),
)
_REFS = {"poly": lambda x, k: x * k + k, "mix": lambda x, k: x * x + k}


class _TickClock:
    """A deterministic stand-in for ``time.monotonic``: every reading
    advances a fixed step, so quarantine/backoff behaviour replays
    identically across runs (and across hosts)."""

    def __init__(self, step: float = 0.001) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def _conf():
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_KNOWN)
    return conf


def _build(seed: int):
    """One assured service stack on a fresh machine."""
    machine = Machine()
    machine.load(SOAK_SOURCE)
    metrics = Metrics()
    manager = SpecializationManager(
        machine, metrics=metrics, clock=_TickClock(),
        backoff_seconds=0.016, max_backoff_seconds=0.256,
    )
    service = RewriteService(
        machine, manager=manager, metrics=metrics,
        shadow_interval=SHADOW_INTERVAL, shadow_seed=seed,
        retry_budget=16,
    )
    return machine, service, metrics


def _run_soak(seed: int, calls: int = SOAK_CALLS) -> dict:
    """Phase 1: the seeded miscompile soak.  Returns every observable
    the checks need (and the service, for the restart phase)."""
    machine, service, metrics = _build(seed)
    evil = {fn: machine.image.resolve(f"{fn}_evil") for fn, _ in SOAK_KEYS}
    for fn, k in SOAK_KEYS:  # prime the cache
        service.request(_conf(), fn, 0, k)
    service.drain()

    rng = random.Random(seed)
    inject_at = set(rng.sample(range(20, calls - SHADOW_INTERVAL * len(SOAK_KEYS) * 2),
                               SOAK_INJECTIONS))
    per_key = {key: {"calls": 0, "corrupt_at": None, "deferred": False}
               for key in SOAK_KEYS}
    injected = detected = 0
    windows: list[int] = []
    escapes_before_detection = escapes_after_withdrawal = 0

    for i in range(calls):
        fn, k = SOAK_KEYS[i % len(SOAK_KEYS)]
        x = (i * 7) % 23
        st = per_key[(fn, k)]
        cache_key = service.manager.key_for(fn, _conf(), (x, k))
        if i in inject_at or st["deferred"]:
            entry = service.manager.published(cache_key)
            if (
                entry is not None
                and entry != evil[fn]
                and not service.manager.on_probation(cache_key)
                and st["corrupt_at"] is None
            ):
                # the seeded miscompile: the published body silently
                # starts computing k+1 — no fault, no crash, just wrong
                service.manager.publish(cache_key, evil[fn])
                st["corrupt_at"] = st["calls"]
                st["deferred"] = False
                injected += 1
            elif i in inject_at:
                st["deferred"] = True  # retry at this key's next call
        before = len(service.divergences)
        run = service.call(_conf(), fn, x, k)
        st["calls"] += 1
        correct = run.int_return == _REFS[fn](x, k)
        if len(service.divergences) > before:
            detected += 1
            windows.append(st["calls"] - st["corrupt_at"])
            st["corrupt_at"] = None
        if not correct:
            if st["corrupt_at"] is not None:
                escapes_before_detection += 1
            else:
                escapes_after_withdrawal += 1
        service.step()  # one unit of background-worker progress per call

    return {
        "machine": machine,
        "service": service,
        "metrics": metrics,
        "injected": injected,
        "detected": detected,
        "windows": windows,
        "escapes_before": escapes_before_detection,
        "escapes_after": escapes_after_withdrawal,
        "unresolved": sum(1 for st in per_key.values()
                          if st["corrupt_at"] is not None),
        "probation_admits": metrics.value("shadow.probation_admits"),
        "snapshot_json": metrics.snapshot_json(),
    }


def _run_restart(soak: dict, seed: int, calls: int = 60) -> dict:
    """Phase 2: snapshot (with one bit-rotted record), restore into a
    fresh machine, continue the soak clean."""
    path = Path(tempfile.mkdtemp(prefix="repro-soak-")) / "spec.snap"
    # record 1 is the meta header; nth=2 bit-rots the first entry record
    with FaultInjector("snapshot", nth=2):
        soak["service"].save_snapshot(path)
    machine, service, metrics = _build(seed)
    report = service.restore_snapshot(path)
    wrongs = 0
    for i in range(calls):
        fn, k = SOAK_KEYS[i % len(SOAK_KEYS)]
        x = (i * 5) % 19
        run = service.call(_conf(), fn, x, k)
        if run.int_return != _REFS[fn](x, k):
            wrongs += 1
        service.step()
    return {
        "report": report,
        "rejected": len(report.rejected),
        "rejected_reasons": {f.reason for f in report.rejected},
        "restored": report.restored,
        "wrongs": wrongs,
        "divergences": len(service.divergences),
        "probation_admits": metrics.value("shadow.probation_admits"),
        "restored_publishes": metrics.value("service.restored_publishes"),
    }


def _run_overload(flood: int = 12, depth: int = 2) -> dict:
    """Phase 3: bounded-queue shedding + warm-dispatch overhead."""
    machine = Machine()
    machine.load(SOAK_SOURCE)
    service = RewriteService(machine, max_queue_depth=depth)
    for k in range(100, 100 + flood):  # distinct keys, nothing stepped
        service.request(_conf(), "poly", 0, k)
    shed = service.metrics.value("service.shed")
    pending = service.pending()
    service.drain()
    # warm-dispatch overhead, measured the way EXT-4's baseline is
    started = time.perf_counter()
    rounds = 200
    for _ in range(rounds):
        service.request(_conf(), "poly", 0, 100)
    warm_seconds = (time.perf_counter() - started) / rounds
    sync = brew_rewrite(machine, _conf(), "poly", 0, 100)
    ratio = warm_seconds / sync.rewrite_seconds if sync.ok else 1.0
    # the step-budget watchdog: a rewrite that would trace past the
    # budget aborts with the retryable `trace-limit` reason instead of
    # wedging the worker
    watchdog = RewriteService(machine, watchdog_max_trace_steps=3)
    watchdog.request(_conf(), "mix", 0, 9)
    watchdog.drain()
    wd_failed = watchdog.metrics.value("service.failures") == 1
    wd_reason = watchdog.manager.cached_result(
        watchdog.manager.key_for("mix", _conf(), (0, 9))
    )
    return {
        "flood": flood,
        "depth": depth,
        "shed": shed,
        "pending_at_flood": pending,
        "shed_deterministic": shed == flood - depth,
        "dispatch_ratio": ratio,
        "sync_ok": sync.ok,
        "watchdog_aborted": wd_failed and wd_reason is not None
                            and wd_reason.reason == "trace-limit",
    }


def ext5_soak(seed: int = SOAK_SEED) -> Experiment:
    """Continuous assurance under fire: miscompile soak, restart
    recovery, overload shedding — all seeded, all reproducible."""
    exp = Experiment(
        "EXT-5",
        "continuous assurance: shadow soak, crash recovery, admission control",
        "beyond Sec. III.G: published variants stay supervised",
    )
    soak = _run_soak(seed)
    replay = _run_soak(seed)  # same seed → bit-for-bit identical metrics
    restart = _run_restart(soak, seed)
    overload = _run_overload()

    max_window = max(soak["windows"], default=0)
    exp.rows.append(Row("soak calls", SOAK_CALLS, None,
                        note=f"{len(SOAK_KEYS)} keys, shadow 1/{SHADOW_INTERVAL}"))
    exp.rows.append(Row("miscompiles injected", soak["injected"], None,
                        note="published body silently replaced"))
    exp.rows.append(Row("divergences detected", soak["detected"], None,
                        note=f"max window {max_window} calls of the key"))
    exp.rows.append(Row("escapes before detection", soak["escapes_before"], None,
                        note="bounded by the sampling interval"))
    exp.rows.append(Row("escapes after withdrawal", soak["escapes_after"], None,
                        note="must be zero"))
    exp.rows.append(Row("restart: entries restored", restart["restored"], None,
                        note=f"{restart['rejected']} CRC-corrupt record rejected"))
    exp.rows.append(Row("overload: requests shed", overload["shed"], None,
                        note=f"flood {overload['flood']}, queue depth "
                             f"{overload['depth']}"))
    exp.rows.append(Row("warm dispatch / sync rewrite",
                        round(overload["dispatch_ratio"], 4), None,
                        note="EXT-4 baseline bound: <= 0.05"))

    exp.check("every injected miscompile detected (and all injections landed)",
              soak["injected"] == SOAK_INJECTIONS
              and soak["detected"] == soak["injected"]
              and soak["unresolved"] == 0)
    exp.check(f"detection within the sampling window (<= {SHADOW_INTERVAL} "
              "calls of the key)",
              0 < max_window <= SHADOW_INTERVAL)
    exp.check("zero wrong results delivered after withdrawal",
              soak["escapes_after"] == 0)
    exp.check("withdrawn keys re-admitted through shadow-validated probation",
              soak["probation_admits"] > 0)
    exp.check("soak replay is bit-for-bit identical (metrics snapshot)",
              soak["snapshot_json"] == replay["snapshot_json"])
    exp.check("restart: corrupt snapshot record rejected as snapshot-corrupt, "
              "everything else restored",
              restart["rejected"] == 1
              and restart["rejected_reasons"] == {"snapshot-corrupt"}
              and restart["restored"] >= 1)
    exp.check("restart: restored variants re-validated, zero wrong answers",
              restart["wrongs"] == 0 and restart["restored_publishes"] >= 1
              and restart["probation_admits"] >= 1)
    exp.check("overload: bounded queue sheds deterministically "
              "(flood - depth requests)",
              overload["shed_deterministic"])
    exp.check("overload: warm dispatch <= 5% of a synchronous rewrite",
              overload["sync_ok"] and overload["dispatch_ratio"] <= 0.05)
    exp.check("watchdog: over-budget rewrite aborts as retryable trace-limit",
              overload["watchdog_aborted"])

    health = dict(soak["service"].manager.stats())
    soak["metrics"].merge_counters_into(health)
    exp.health = health
    exp.listing = "metrics " + soak["snapshot_json"]
    return exp
