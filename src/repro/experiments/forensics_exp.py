"""EXT-9: crash forensics — black-box flight recorder, REPRO-BUNDLE
capture on every tagged failure, deterministic replay, repro shrinking.

Goes beyond the paper's Sec. III.G graceful-failure story: when the
rewriter, the shadow sampler, the torture harness or the sharded fabric
hits a tagged failure, Layer 5 (``repro.core.forensics``) must capture
a self-contained ``REPRO-BUNDLE`` whose offline replay
(``repro.testing.replay``) re-derives the *identical* failure reason and
a bit-for-bit replay fingerprint.  The sweep here seeds one failure per
layer, captures it, replays it, shrinks one repro with the delta-
debugging minimizer, and prices the always-on flight recorder against a
forensics-free service (bound: <= 5% on warm dispatch).
"""

from __future__ import annotations

import dataclasses
import time

from repro.asm.assembler import assemble
from repro.core import BREW_KNOWN, brew_init_conf, brew_setpar
from repro.core.forensics import ForensicsHub
from repro.core.resilience import RewriteSupervisor
from repro.experiments.harness import Experiment, Row
from repro.machine.vm import Machine
from repro.obs import FlightRecorder, Metrics
from repro.service import RewriteService
from repro.service.fabric import RewriteFabric
from repro.testing import (
    materialize_torture_bundle,
    minimize_bundle,
    replay_bundle,
    run_torture,
)

FORENSICS_SEED = 990
TORTURE_COUNT = 18
OVERHEAD_ROUNDS = 2000
OVERHEAD_REPEATS = 7
OVERHEAD_BOUND = 1.05

#: Workload for the supervisor / shadow / fabric / overhead phases.
FORENSICS_SOURCE = """
noinline long poly(long x, long k) { return x * k + k; }
noinline long poly_evil(long x, long k) { return x * k + k + 1; }
noinline long spin(long n, long k) {
    long s = 0;
    long i = 0;
    while (i < n) { s = s + k; i = i + 1; }
    return s;
}
"""


def _conf():
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_KNOWN)
    return conf


def _replay_row(bundle) -> dict:
    out = replay_bundle(bundle)
    return {
        "kind": bundle.kind,
        "reason": bundle.reason,
        "ok": out.ok,
        "reason_match": out.reason_matches,
        "fp_match": out.fingerprint_matches,
    }


def _run_supervisor(metrics: Metrics) -> dict:
    """Phase A: four organically distinct terminal supervisor failures,
    each captured and replayed."""
    replays = []
    cases = []

    # bad-argument: non-numeric argument (non-retryable, terminal at base)
    machine = Machine()
    machine.load(FORENSICS_SOURCE)
    hub = ForensicsHub(metrics=metrics)
    sup = RewriteSupervisor(machine, forensics=hub, metrics=metrics)
    sup.rewrite(_conf(), "poly", "oops", 3)
    cases.append(("bad-argument", hub))

    # bad-pass: unknown optimization pass configured (non-retryable)
    machine = Machine()
    machine.load(FORENSICS_SOURCE)
    hub = ForensicsHub(metrics=metrics)
    sup = RewriteSupervisor(machine, forensics=hub, metrics=metrics)
    conf = _conf()
    conf.passes = ("no-such-pass",)
    sup.rewrite(conf, "poly", 5, 3)
    cases.append(("bad-pass", hub))

    # indirect-jump: hand-assembled `jmpi rdi` (paper Sec. III.F — the
    # rewrite fails at every ladder rung)
    machine = Machine()
    machine.load(FORENSICS_SOURCE)
    entry = machine.image.add_function("ij", bytes(64))
    code, _ = assemble("jmpi rdi", entry)
    machine.image.poke(entry, code)
    hub = ForensicsHub(metrics=metrics)
    sup = RewriteSupervisor(machine, forensics=hub, metrics=metrics)
    sup.rewrite(_conf(), "ij", 7, 3)
    cases.append(("indirect-jump", hub))

    # trace-limit: a supervisor-level step budget the loop must exceed
    # at every rung (the budget does not relax down the ladder)
    machine = Machine()
    machine.load(FORENSICS_SOURCE)
    hub = ForensicsHub(metrics=metrics)
    sup = RewriteSupervisor(
        machine, forensics=hub, metrics=metrics, max_trace_steps=8
    )
    sup.rewrite(_conf(), "spin", 50, 3)
    cases.append(("trace-limit", hub))

    captured = 0
    reasons = []
    for expected, hub in cases:
        if len(hub.bundles) == 1:
            captured += 1
            bundle = hub.bundles[0]
            reasons.append((expected, bundle.reason))
            replays.append(_replay_row(bundle))
    return {
        "cases": len(cases),
        "captured": captured,
        "reasons_match": all(exp == got for exp, got in reasons),
        "replays": replays,
    }


def _run_shadow(metrics: Metrics) -> dict:
    """Phase B: publish an evil twin under the published entry, let the
    shadow sampler catch it, capture + replay the divergence."""
    machine = Machine()
    machine.load(FORENSICS_SOURCE)
    hub = ForensicsHub(metrics=metrics)
    service = RewriteService(machine, shadow_interval=1, forensics=hub)
    service.request(_conf(), "poly", 0, 3)
    service.drain()
    key = service.manager.key_for("poly", _conf(), (5, 3))
    service.table.publish(key, machine.image.resolve("poly_evil"))
    run = service.call(_conf(), "poly", 5, 3)
    bundle = hub.bundles[-1] if hub.bundles else None
    replay = _replay_row(bundle) if bundle is not None else None
    return {
        "captured": len(hub.bundles),
        "detected": len(service.divergences),
        "served_original": run.int_return == 5 * 3 + 3,
        "replay": replay,
    }


def _run_torture_phase(metrics: Metrics) -> dict:
    """Phase C: a seeded torture sweep; every non-verified image must
    yield a bundle and every bundle must replay to the same record."""
    hub = ForensicsHub(metrics=metrics)
    report = run_torture(
        FORENSICS_SEED, TORTURE_COUNT, jit_parity=False, forensics=hub
    )
    non_verified = sum(
        1 for o in report.outcomes if o["classification"] != "rewritten-verified"
    )
    replays = [_replay_row(b) for b in hub.bundles]
    return {
        "report": report,
        "non_verified": non_verified,
        "captured": len(hub.bundles),
        "replays": replays,
        "bundles": list(hub.bundles),
    }


def _run_fabric(metrics: Metrics) -> dict:
    """Phase D: two shard deaths — an operator crash and a heartbeat
    timeout — each captured with its failover decisions and replayed
    purely from the bundle (the timeout death's tick is re-derived from
    the journaled heartbeat table)."""
    hub = ForensicsHub(metrics=metrics)
    fabric = RewriteFabric(
        FORENSICS_SOURCE, shards=3, seed=FORENSICS_SEED, forensics=hub
    )
    for i in range(6):
        fabric.request(f"tenant{i % 2}", _conf(), "poly", i, 3 + i)
    fabric.crash_shard(1)
    fabric.pump(1)
    fabric.stall_shard(0)
    fabric.pump(10)
    causes = [b.evidence["cause"] for b in hub.bundles]
    replays = [_replay_row(b) for b in hub.bundles]
    fabric.close()
    fabric.close()  # idempotent
    degraded = fabric.request("tenant0", _conf(), "poly", 1, 2)
    return {
        "captured": len(hub.bundles),
        "causes": causes,
        "replays": replays,
        "closed_deaf": (
            degraded.outcome == "degraded"
            and degraded.reason == "shard-dead"
            and fabric.pump(3) == 0
        ),
    }


def _run_minimizer(torture: dict) -> dict:
    """Phase E: materialize one torture failure as a rewrite-failure
    bundle, pad its request sequence with redundant warm-ups, and let
    the minimizer strip both the sequence and the guest image."""
    source = next(
        (b for b in torture["bundles"] if b.kind == "torture"), None
    )
    if source is None:
        return {"ran": False}
    mat = materialize_torture_bundle(source)
    padded = dataclasses.replace(mat, requests=list(mat.requests) * 4)
    report = minimize_bundle(padded)
    replay = replay_bundle(report.bundle)
    return {
        "ran": True,
        "reason": mat.reason,
        "requests_before": report.requests_before,
        "requests_after": report.requests_after,
        "code_before": report.code_bytes_before,
        "code_after": report.code_bytes_after,
        "replays_spent": report.replays,
        "still_fails": replay.ok and replay.replayed_reason == mat.reason,
    }


def _time_warm(service) -> float:
    """Wall time for a burst of warm (cache-hit) requests."""
    started = time.perf_counter()
    for _ in range(OVERHEAD_ROUNDS):
        service.request(_conf(), "poly", 0, 100)
    return time.perf_counter() - started


def _run_overhead() -> dict:
    """Phase F: warm-dispatch cost with the flight recorder armed vs.
    forensics-free.  Warm hits are never journaled, so the bound is a
    single attribute test per dispatch.  One service is timed, its hub
    switched on and off between interleaved bursts (which side goes
    first alternates), best-of-N per side: two service instances
    differ by more host noise than the bound allows."""
    machine = Machine()
    machine.load(FORENSICS_SOURCE)
    hub = ForensicsHub(recorder=FlightRecorder(capacity=256))
    service = RewriteService(machine, forensics=hub)
    service.request(_conf(), "poly", 0, 100)
    service.drain()
    sides = (None, hub)
    best = [float("inf"), float("inf")]
    for repeat in range(OVERHEAD_REPEATS):
        for side in ((0, 1) if repeat % 2 == 0 else (1, 0)):
            service.forensics = sides[side]
            best[side] = min(best[side], _time_warm(service))
    base, with_rec = best
    ratio = with_rec / base if base > 0 else 1.0
    return {
        "base_seconds": base,
        "armed_seconds": with_rec,
        "ratio": ratio,
        "rounds": OVERHEAD_ROUNDS,
    }


def ext9_forensics(seed: int = FORENSICS_SEED) -> Experiment:
    """Crash forensics: every tagged failure yields a replayable bundle."""
    exp = Experiment(
        "EXT-9",
        "crash forensics: flight recorder, repro bundles, replay, shrinking",
        "beyond Sec. III.G: a tagged failure is also a repro",
    )
    metrics = Metrics()
    supervisor = _run_supervisor(metrics)
    shadow = _run_shadow(metrics)
    torture = _run_torture_phase(metrics)
    fabric = _run_fabric(metrics)
    minim = _run_minimizer(torture)
    overhead = _run_overhead()

    all_replays = (
        supervisor["replays"]
        + ([shadow["replay"]] if shadow["replay"] else [])
        + torture["replays"]
        + fabric["replays"]
    )
    replay_ok = sum(1 for r in all_replays if r["ok"])

    exp.rows.append(Row("supervisor failures captured", supervisor["captured"],
                        None, note=f"of {supervisor['cases']} seeded terminal "
                                   "failures (4 distinct reasons)"))
    exp.rows.append(Row("shadow divergences captured", shadow["captured"],
                        None, note="evil twin published under a live key"))
    exp.rows.append(Row("torture failures captured", torture["captured"], None,
                        note=f"{torture['non_verified']} non-verified of "
                             f"{TORTURE_COUNT} images"))
    exp.rows.append(Row("fabric shard deaths captured", fabric["captured"],
                        None, note="crash + heartbeat timeout"))
    exp.rows.append(Row("bundles replayed identically", replay_ok, None,
                        note=f"of {len(all_replays)} bundles: same reason, "
                             "bit-for-bit fingerprint"))
    if minim["ran"]:
        exp.rows.append(Row(
            "minimizer: request sequence",
            minim["requests_after"], None,
            note=f"from {minim['requests_before']} requests, "
                 f"{minim['replays_spent']} replays spent"))
        exp.rows.append(Row(
            "minimizer: guest code bytes",
            minim["code_after"], None,
            note=f"from {minim['code_before']} bytes, still fails as "
                 f"`{minim['reason']}`"))
    exp.rows.append(Row("warm dispatch, recorder armed",
                        round(overhead["ratio"], 4), None,
                        note=f"vs. forensics-free service over "
                             f"{overhead['rounds']} warm requests "
                             f"(bound <= {OVERHEAD_BOUND})"))

    exp.check("supervisor: every terminal failure produced a bundle with "
              "the organic reason",
              supervisor["captured"] == supervisor["cases"]
              and supervisor["reasons_match"])
    exp.check("shadow: the divergence was detected, captured, and the "
              "caller still got the original's answer",
              shadow["captured"] == 1 and shadow["detected"] == 1
              and shadow["served_original"])
    exp.check("torture: 100% of non-verified images produced a bundle "
              "(and the graceful-failure contract held)",
              torture["captured"] == torture["non_verified"] > 0
              and torture["report"].contract_holds)
    exp.check("fabric: both shard deaths (crash, heartbeat timeout) "
              "produced bundles",
              fabric["captured"] == 2
              and any("crash" in c for c in fabric["causes"])
              and "heartbeat-timeout" in fabric["causes"])
    exp.check("closed fabric is deaf: degraded answers, idempotent close, "
              "pump is a no-op",
              fabric["closed_deaf"])
    exp.check("replay: every bundle re-executed to the identical failure "
              "reason and bit-for-bit fingerprint",
              len(all_replays) > 0 and replay_ok == len(all_replays))
    exp.check("minimizer: strictly smaller request sequence and guest "
              "image, same failure reason",
              minim["ran"]
              and minim["requests_after"] < minim["requests_before"]
              and minim["code_after"] < minim["code_before"]
              and minim["still_fails"])
    exp.check(f"flight recorder costs <= {int((OVERHEAD_BOUND - 1) * 100)}% "
              "on warm dispatch",
              overhead["ratio"] <= OVERHEAD_BOUND)

    exp.health = metrics.counters_with_prefix("forensics.")
    exp.listing = "metrics " + metrics.snapshot_json()
    return exp
