"""EXT-7: multi-tenant chaos/load campaign on the sharded fabric
(beyond-paper extension).

The paper's robustness story (Sec. III.G) is per-rewrite; PRs 1-6 grew
it into a supervised, persisted, admission-controlled service.  EXT-7
asks the scale question the ROADMAP's "millions of users" north star
implies: does the story survive **sharding** — many fault-isolated
rewrite domains, hostile tenants, and an unreliable interconnect, all
failing at once?

One seeded campaign drives >= 10^5 mixed-tenant requests through a
:class:`~repro.service.fabric.RewriteFabric` of 4-8 shards while a
deterministic fault schedule fires: a shard *stalls* (heartbeats stop;
the watchdog walks it SUSPECT -> DEAD), a shard *crashes* mid-rewrite
(kill -9), an inter-shard link *partitions* (and later heals through
the circuit breaker), and a hostile tenant *floods* junk requests.
The campaign asserts:

* **bit-for-bit replay at p=0** — the full fabric metrics snapshot
  (router + every shard, merged in shard order) is byte-identical
  across two runs with the same seed;
* **zero wrong answers** — every executed call (a seeded subset of the
  stream, forced dense through the failover windows) matches its
  Python reference, including calls that land mid-failover;
* **zero cross-shard contamination** — a variant poisoned on one shard
  is caught by *that* shard's shadow sampler and never publishes,
  diverges, or appears anywhere else;
* **tenant fairness** — the hostile tenant's shed rate exceeds every
  well-behaved tenant's by >= 10x (quota + weighted-fair dequeue);
* **full outcome classification** — every request lands in the
  documented outcome vocabulary with a taxonomy-listed reason;

and reports p50/p99 dispatch-latency percentiles (modelled cycles,
routing + interconnect).  ``python -m repro.experiments --write ext-7``
saves the full-scale run (:data:`EXT7_REQUESTS` requests over
:data:`EXT7_SHARDS` shards) as ``BENCH_ext7.json``.
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

from repro.core import brew_init_conf, brew_setpar, BREW_KNOWN
from repro.errors import FAILURE_REASONS
from repro.experiments.harness import Experiment, Row
from repro.service import RewriteFabric

#: The fixed campaign seed CI reproduces bit-for-bit (reduced scale).
EXT7_SEED = 2207

#: Full-scale campaign shape (the acceptance bar).
EXT7_REQUESTS = 100_000
EXT7_SHARDS = 6

#: Every outcome :meth:`RewriteFabric.request` may produce.
OUTCOMES = ("warm", "cold", "coalesced", "shed", "degraded")

FABRIC_SOURCE = """
noinline long poly(long x, long k) { return x * k + k; }
noinline long mix(long x, long k) { return x * x + k; }
noinline long poly_evil(long x, long k) { return x * k + k + 1; }
"""

_REFS = {"poly": lambda x, k: x * k + k, "mix": lambda x, k: x * x + k}

#: The well-behaved tenants and their per-tenant k bases (each works a
#: small, warm-hit-friendly key set).
BENIGN = ("alice", "bob", "carol", "dave", "erin")
_BASE_K = {t: 3 + 2 * i for i, t in enumerate(BENIGN)}

#: The hostile tenant: floods junk requests (malformed k arguments,
#: every one a distinct cache key — worthless cold misses by design).
HOSTILE = "mallory"


def _conf():
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_KNOWN)
    return conf


def _percentile(sorted_values: list, q: float) -> int:
    if not sorted_values:
        return 0
    idx = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[idx]


def _campaign(seed: int, requests: int, shards: int) -> dict:
    """One full seeded run: build the fabric, drive the mixed-tenant
    stream under the fault schedule, return every observable the checks
    need (plus the live fabric, for the contamination probe)."""
    snapdir = Path(tempfile.mkdtemp(prefix="repro-fabric-"))
    fabric = RewriteFabric(
        FABRIC_SOURCE,
        shards=shards,
        seed=seed,
        default_quota=4,
        weights={t: 2 for t in BENIGN},
        work_per_tick=2,
        suspect_after=3.0,
        dead_after=6.0,
        # scale checkpoints so at least one lands before the first fault
        # fires at 20% of the stream (one pump tick per 4 requests)
        checkpoint_interval=max(8, min(256, requests // 40)),
        snapshot_dir=snapdir,
        shadow_interval=7,
    )
    rng = random.Random(seed)

    # -- the fault schedule, at fixed fractions of the stream ----------
    crash_target = shards - 1
    stall_target = shards - 2 if shards >= 3 else None  # keep one alive
    part_target = 0
    stall_at = int(requests * 0.20)
    crash_at = int(requests * 0.35)
    part_at, heal_at = int(requests * 0.50), int(requests * 0.60)
    flood_lo, flood_hi = int(requests * 0.70), int(requests * 0.80)
    window = max(1, requests // 20)
    failover_windows = [(crash_at, crash_at + window)]
    if stall_target is not None:
        failover_windows.append((stall_at, stall_at + window))

    outcome_counts = {o: 0 for o in OUTCOMES}
    unclassified = 0
    reasons_seen: set[str] = set()
    latencies: list[int] = []
    wrongs = wrongs_failover = executed = 0
    total_sent = 0

    def classify(route) -> None:
        nonlocal unclassified, total_sent
        total_sent += 1
        if route.outcome in outcome_counts:
            outcome_counts[route.outcome] += 1
        else:
            unclassified += 1
        if route.reason is not None:
            reasons_seen.add(route.reason)
            if route.reason not in FAILURE_REASONS:
                unclassified += 1
        latencies.append(route.cycles)

    def hostile_request(j: int):
        # hostile junk: a malformed k makes every request a distinct
        # fail-fast cold miss (`bad-argument`) — pure queue pressure
        return fabric.request(
            HOSTILE, _conf(), "poly", rng.randrange(1000), [j, "junk"]
        )

    for i in range(requests):
        if stall_target is not None and i == stall_at:
            fabric.stall_shard(stall_target)
        if i == crash_at:
            fabric.crash_shard(crash_target)
        if i == part_at:
            fabric.partition_shard(part_target, attempts=10_000)
        if i == heal_at:
            fabric.heal_shard(part_target)

        in_failover = any(lo <= i < hi for lo, hi in failover_windows)
        if flood_lo <= i < flood_hi:
            # the hostile flood: a 3x burst per stream slot, far above
            # the fabric's drain rate — quotas must absorb all of it
            for j in range(3):
                classify(hostile_request(i * 4 + j))
        if rng.random() < 0.12:
            classify(hostile_request(i * 4 + 3))
            route = None
        else:
            tenant = BENIGN[rng.randrange(len(BENIGN))]
            fn = "poly" if rng.random() < 0.5 else "mix"
            args = (rng.randrange(40), _BASE_K[tenant] + rng.randrange(3))
            execute = (i % 25 == 0) or (in_failover and i % 5 == 0)
            if execute:
                route = fabric.call(tenant, _conf(), fn, *args)
                executed += 1
                if route.run.int_return != _REFS[fn](*args):
                    wrongs += 1
                    if in_failover:
                        wrongs_failover += 1
            else:
                route = fabric.request(tenant, _conf(), fn, *args)
            classify(route)
        if i % 4 == 3:
            fabric.pump()
    fabric.pump(8)  # let the tail drain

    tenant_rates = {}
    for tenant in BENIGN + (HOSTILE,):
        sent = fabric.metrics.value(f"fabric.tenant.{tenant}.requests")
        shed = fabric.metrics.value(f"fabric.tenant.{tenant}.shed")
        tenant_rates[tenant] = (shed / sent) if sent else 0.0

    return {
        "fabric": fabric,
        "total_sent": total_sent,
        "outcomes": outcome_counts,
        "unclassified": unclassified,
        "reasons": reasons_seen,
        "latencies": latencies,
        "executed": executed,
        "wrongs": wrongs,
        "wrongs_failover": wrongs_failover,
        "tenant_rates": tenant_rates,
        "deaths": fabric.metrics.value("fabric.deaths"),
        "warm_starts": fabric.metrics.value("fabric.warm_starts"),
        "snapshot_json": fabric.metrics_snapshot().snapshot_json(),
    }


def _poison_probe(fabric: RewriteFabric, rounds: int = 80) -> dict:
    """Cross-shard contamination probe: publish an *evil* body for one
    warm key on its owner shard, keep calling through the fabric until
    the owner's shadow sampler catches it, and verify the blast radius
    is exactly one shard."""
    tenant, fn, args = BENIGN[0], "poly", (5, _BASE_K[BENIGN[0]])
    conf = _conf()
    route = fabric.call(tenant, conf, fn, *args)
    for _ in range(20):  # drive it warm if it was not already
        if route.outcome == "warm":
            break
        fabric.pump()
        route = fabric.call(tenant, conf, fn, *args)
    owner = route.shard_ref
    key = owner.manager.key_for(fn, conf, args)
    evil = owner.machine.image.resolve("poly_evil")
    owner.manager.publish(key, evil)
    caught = 0
    for _ in range(rounds):
        fabric.call(tenant, conf, fn, *args)
        if len(owner.service.divergences) > 0:
            caught = 1
            break
    others = [s for s in fabric.shards if s.index != owner.index]
    return {
        "warm": route.outcome == "warm",
        "caught": caught,
        "owner": owner.index,
        "other_divergences": sum(len(s.service.divergences) for s in others),
        "other_shadow_metrics": sum(
            s.metrics.value("shadow.divergences") for s in others
        ),
        "evil_elsewhere": sum(
            1 for s in others
            if evil in s.manager.published_entries().values()
        ),
    }


def ext7_fabric(
    seed: int = EXT7_SEED,
    requests: int = EXT7_REQUESTS,
    shards: int = EXT7_SHARDS,
) -> Experiment:
    """The sharded fabric under fire: mixed tenants, shard stall/crash,
    link partition, hostile flood — seeded, replayable, contained."""
    exp = Experiment(
        "EXT-7",
        "sharded rewrite fabric: multi-tenant chaos/load campaign",
        "beyond Sec. III.G: fault isolation at fleet scale",
    )
    run = _campaign(seed, requests, shards)
    replay = _campaign(seed, requests, shards)
    probe = _poison_probe(run["fabric"])

    lat = sorted(run["latencies"])
    p50, p99 = _percentile(lat, 0.50), _percentile(lat, 0.99)
    hostile_rate = run["tenant_rates"][HOSTILE]
    benign_rate = max(run["tenant_rates"][t] for t in BENIGN)
    outcomes = run["outcomes"]

    exp.rows.append(Row("requests routed", run["total_sent"], None,
                        note=f"{shards} shards, {len(BENIGN)}+1 tenants"))
    exp.rows.append(Row("warm hits", outcomes["warm"], None,
                        note="published entry returned"))
    exp.rows.append(Row("cold misses", outcomes["cold"] + outcomes["coalesced"],
                        None, note=f"{outcomes['coalesced']} coalesced"))
    exp.rows.append(Row("quota sheds", outcomes["shed"], None,
                        note="tenant-quota-exceeded"))
    exp.rows.append(Row("degraded routes", outcomes["degraded"], None,
                        note="stall/partition/outage -> original"))
    exp.rows.append(Row("dispatch p50 (cycles)", p50, None,
                        note="route lookup + interconnect"))
    exp.rows.append(Row("dispatch p99 (cycles)", p99, None,
                        note="fault retries + breaker tails"))
    exp.rows.append(Row("dispatch p99.9 (cycles)", _percentile(lat, 0.999),
                        None, note="the deep fault tail"))
    exp.rows.append(Row("executed subset", run["executed"], None,
                        note="checked against Python references"))
    exp.rows.append(Row("hostile shed rate", round(hostile_rate, 4), None,
                        note=f"benign max {round(benign_rate, 4)}"))

    expected_deaths = 2 if shards >= 3 else 1
    exp.check("bit-for-bit replay at p=0 (full fabric metrics snapshot)",
              run["snapshot_json"] == replay["snapshot_json"])
    exp.check("zero wrong answers on the executed subset",
              run["executed"] > 0 and run["wrongs"] == 0)
    exp.check("zero wrong answers during shard failover windows",
              run["wrongs_failover"] == 0)
    exp.check("every outcome classified (vocabulary + taxonomy reasons)",
              run["unclassified"] == 0
              and sum(outcomes.values()) == run["total_sent"]
              and run["total_sent"] >= requests)
    exp.check("fault schedule observed: shards died and failed over",
              run["deaths"] == expected_deaths
              and run["warm_starts"] >= 1)
    exp.check("degradation surfaced with taxonomy reasons "
              "(partition at minimum)",
              outcomes["degraded"] > 0
              and "link-partition" in run["reasons"]
              and (shards < 3 or "shard-stalled" in run["reasons"]))
    exp.check("hostile tenant shed >= 10x every well-behaved tenant",
              hostile_rate > 0 and hostile_rate >= 10 * benign_rate)
    exp.check("poison probe: owner shard caught the divergence",
              probe["warm"] and probe["caught"] == 1)
    exp.check("zero cross-shard contamination "
              "(no foreign divergence, no foreign publication)",
              probe["other_divergences"] == 0
              and probe["other_shadow_metrics"] == 0
              and probe["evil_elsewhere"] == 0)

    exp.health = {
        "requests": run["fabric"].metrics.value("fabric.requests"),
        "performed": run["fabric"].metrics.value("fabric.performed"),
        "tenant_shed": run["fabric"].metrics.value("fabric.tenant_shed"),
        "degraded": run["fabric"].metrics.value("fabric.degraded"),
        "deaths": run["deaths"],
        "warm_starts": run["warm_starts"],
        "executed": run["executed"],
        "wrongs": run["wrongs"],
    }
    exp.listing = "metrics " + run["snapshot_json"]
    run["fabric"].close()
    replay["fabric"].close()
    return exp
