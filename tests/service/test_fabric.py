"""RewriteFabric behaviour: deterministic routing, bulkhead isolation,
per-tenant admission and weighted-fair dequeue, heartbeat watchdog,
crash/stall/partition failover, and the fabric fault-injection seams."""

from __future__ import annotations

import pytest

from repro.core import brew_init_conf, brew_setpar, BREW_KNOWN, BREW_PTR_TO_KNOWN
from repro.core.manager import SpecializationManager
from repro.machine.link import FaultProfile
from repro.service import (
    RewriteFabric, SHARD_DEAD, SHARD_HEALTHY, SHARD_SUSPECT,
)
from repro.service import fabric as fabric_module
from repro.service.fabric import REQUEST_BYTES, ROUTE_MEMO_SIZE
from repro.testing import EXPECTED_REASON, FaultInjector

SOURCE = """
noinline long poly(long x, long k) { return x * k + k; }
noinline long mix(long x, long k) { return x * x + k; }
"""


def _conf():
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_KNOWN)
    return conf


def _keys_owned_by(fabric: RewriteFabric, index: int, count: int,
                   fn: str = "poly", start: int = 3) -> list[int]:
    """The first ``count`` known-arg values whose routing key lands on
    shard ``index`` (rendezvous hashing is deterministic, so this is a
    pure function of the fabric's seed)."""
    ks, k = [], start
    while len(ks) < count:
        digest = fabric.route_digest(_conf(), fn, (0, k))
        if fabric._owner_for(digest).index == index:
            ks.append(k)
        k += 1
    return ks


# -------------------------------------------------------------- routing
def test_routing_is_deterministic_and_spreads_keys():
    with RewriteFabric(SOURCE, shards=3, seed=11) as a, \
         RewriteFabric(SOURCE, shards=3, seed=11) as b:
        owners_a, owners_b = [], []
        for k in range(3, 40):
            digest = a.route_digest(_conf(), "poly", (0, k))
            assert digest == b.route_digest(_conf(), "poly", (0, k))
            owners_a.append(a._owner_for(digest).index)
            owners_b.append(b._owner_for(digest).index)
        assert owners_a == owners_b, "same seed must route identically"
        assert len(set(owners_a)) == 3, "keys must spread across shards"


def test_digest_ignores_unknown_args_and_keys_on_known_ones():
    with RewriteFabric(SOURCE, shards=2, seed=1) as fabric:
        conf = _conf()
        # param 2 is the known one: x is irrelevant, k is the key
        d1 = fabric.route_digest(conf, "poly", (0, 3))
        d2 = fabric.route_digest(conf, "poly", (999, 3))
        d3 = fabric.route_digest(conf, "poly", (0, 4))
        assert d1 == d2 and d1 != d3


# ------------------------------------------------------------ route memo
def _routed(fabric: RewriteFabric, fn, k: int) -> int:
    """The shard ``route_digest`` and rendezvous hashing pick for
    ``fn(x, k)``."""
    return fabric._owner_for(fabric.route_digest(_conf(), fn, (0, k))).index


def test_route_memo_forgets_routes_when_an_owner_dies(monkeypatch):
    """Keys routed (and memoized) before their owner dies route to the
    survivors' rendezvous choice afterwards."""
    digests = []
    digest = fabric_module._digest
    monkeypatch.setattr(fabric_module, "_digest",
                        lambda fn, key: digests.append(key) or digest(fn, key))
    with RewriteFabric(SOURCE, shards=3, seed=5) as fabric:
        ks = _keys_owned_by(fabric, 1, 3)
        digests.clear()
        for _ in range(2):  # the second pass is served from the memo
            shards = [fabric.request("alice", _conf(), "poly", 0, k).shard
                      for k in ks]
            assert shards == [1, 1, 1]
        assert len(digests) == len(ks) == len(fabric._routes)
        fabric.crash_shard(1)
        after = [fabric.request("alice", _conf(), "poly", 0, k).shard
                 for k in ks]
        assert after == [_routed(fabric, "poly", k) for k in ks]
        assert 1 not in after


def test_route_memo_routes_names_and_addresses_as_route_digest_says():
    """``fn`` by name and by address share a manager key but not a
    digest (it hashes ``str(fn)``): each form routes as ``route_digest``
    says, from the memo too."""
    with RewriteFabric(SOURCE, shards=4, seed=11) as fabric:
        addr = fabric.shards[0].machine.image.symbol("poly")
        ks = range(3, 23)
        assert any(_routed(fabric, "poly", k) != _routed(fabric, addr, k)
                   for k in ks)
        for _ in range(2):
            for k in ks:
                for fn in ("poly", addr):
                    route = fabric.request("alice", _conf(), fn, 0, k)
                    assert route.shard == _routed(fabric, fn, k), (fn, k)


def test_route_memo_stays_within_its_bound():
    """The memo drops its oldest route at ``ROUTE_MEMO_SIZE``; a key
    whose route was dropped routes exactly as before."""
    with RewriteFabric(SOURCE, shards=2, seed=3) as fabric:
        ks = range(3, 3 + ROUTE_MEMO_SIZE + 16)
        for k in ks:
            fabric.request("alice", _conf(), "mix", 0, k)
            assert len(fabric._routes) <= ROUTE_MEMO_SIZE
        assert len(fabric._routes) == ROUTE_MEMO_SIZE
        for k in ks[:20]:
            route = fabric.request("alice", _conf(), "mix", 0, k)
            assert route.shard == _routed(fabric, "mix", k)


# ------------------------------------------------------ request lifecycle
def test_cold_then_warm_and_both_paths_execute_correctly():
    with RewriteFabric(SOURCE, shards=3, seed=5) as fabric:
        cold = fabric.call("alice", _conf(), "poly", 5, 3)
        assert cold.outcome == "cold" and cold.entry == cold.original
        assert cold.run.int_return == 5 * 3 + 3
        fabric.pump()
        warm = fabric.call("alice", _conf(), "poly", 7, 3)
        assert warm.outcome == "warm" and warm.entry != warm.original
        assert warm.run.int_return == 7 * 3 + 3
        assert warm.shard == cold.shard, "the key's owner must not move"
        assert fabric.metrics.value("fabric.published") == 1


def test_warm_call_derives_its_key_once(monkeypatch):
    """A warm ``fabric.call`` derives the manager key once and hands it
    to both the route and the owner service's call."""
    with RewriteFabric(SOURCE, shards=2, seed=5) as fabric:
        fabric.call("alice", _conf(), "poly", 5, 3)
        fabric.pump()
        derived = []
        key_for = SpecializationManager.key_for

        def counting_key_for(self, fn, conf, args):
            derived.append(fn)
            return key_for(self, fn, conf, args)

        monkeypatch.setattr(SpecializationManager, "key_for", counting_key_for)
        warm = fabric.call("alice", _conf(), "poly", 7, 3)
        assert warm.outcome == "warm" and warm.run.int_return == 7 * 3 + 3
        assert derived == ["poly"]


def test_request_costs_are_pinned_in_absolute_cycles():
    """The modelled costs EXT-7 reads.  A 128-byte request envelope on
    a clean link costs the route lookup plus one delivery, 40 + 600 +
    128 / 8 x 2 = 672 cycles, cold or warm; a request to a stalled owner
    costs the route lookup plus the link's timeout, 40 + 2 400."""
    with RewriteFabric(
        SOURCE, shards=2, seed=5, suspect_after=2.0, dead_after=9.0,
    ) as fabric:
        k = _keys_owned_by(fabric, 0, 1)[0]
        cold = fabric.request("alice", _conf(), "poly", 0, k)
        fabric.pump()
        warm = fabric.request("alice", _conf(), "poly", 0, k)
        assert (cold.outcome, cold.cycles) == ("cold", 672)
        assert (warm.outcome, warm.cycles) == ("warm", 672)
        fabric.stall_shard(0)
        fabric.pump(2)
        assert fabric.shards[0].state == SHARD_SUSPECT
        stalled = fabric.request("alice", _conf(), "poly", 0, k)
        assert (stalled.outcome, stalled.reason) == ("degraded", "shard-stalled")
        assert stalled.cycles == 2440


def test_duplicate_requests_coalesce_at_the_fabric_queue():
    with RewriteFabric(SOURCE, shards=2, seed=5) as fabric:
        first = fabric.request("alice", _conf(), "poly", 0, 3)
        second = fabric.request("bob", _conf(), "poly", 9, 3)
        assert first.outcome == "cold"
        assert second.outcome == "coalesced"
        assert fabric.shards[first.shard].queue_depth() == 1


def test_bulkheads_share_nothing():
    with RewriteFabric(SOURCE, shards=3, seed=5) as fabric:
        route = fabric.request("alice", _conf(), "poly", 0, 3)
        fabric.pump()
        owner = fabric.shards[route.shard]
        assert len(owner.manager.published_entries()) == 1
        for shard in fabric.shards:
            if shard.index != owner.index:
                assert not shard.manager.published_entries()
                assert shard.manager is not owner.manager
                assert shard.machine is not owner.machine
                assert shard.metrics is not owner.metrics


#: A program with a known config every shard places at one address.
CFG_SOURCE = """
struct Cfg { long scale; long bias; };
struct Cfg cfg;
noinline long scaled(long x, struct Cfg *c) { return x * c->scale; }
"""


def test_unannounced_write_to_known_memory_is_never_served():
    """The fabric's warm lookup passes the owner manager's freshness
    rule: after a write to the known config that nobody announced, the
    next request gets the original and queues a respecialization, which
    reads the new value once pumped."""
    with RewriteFabric(CFG_SOURCE, shards=2, seed=5) as fabric:
        cfg = fabric.shards[0].machine.image.symbol("cfg")
        for shard in fabric.shards:
            shard.machine.memory.write_u64(cfg, 2)
        conf = brew_init_conf()
        brew_setpar(conf, 2, BREW_PTR_TO_KNOWN)
        route = fabric.request("alice", conf, "scaled", 0, cfg)
        for _ in range(8):
            if route.outcome == "warm":
                break
            fabric.pump()
            route = fabric.request("alice", conf, "scaled", 0, cfg)
        assert route.outcome == "warm"
        owner = route.shard_ref
        assert owner.machine.call(route.entry, 5, cfg).int_return == 10

        owner.machine.memory.write_u64(cfg, 7)  # no invalidate_memory
        stale = fabric.request("alice", conf, "scaled", 5, cfg)
        assert stale.outcome == "cold" and stale.entry == stale.original
        assert owner.service.stats()["withdrawn"] == 1

        fabric.pump()
        fresh = fabric.request("alice", conf, "scaled", 5, cfg)
        assert fresh.outcome == "warm" and fresh.shard_ref is owner
        assert owner.machine.call(fresh.entry, 5, cfg).int_return == 35


# ------------------------------------------------------------- admission
def test_tenant_quota_sheds_only_the_flooder():
    with RewriteFabric(SOURCE, shards=3, seed=7, default_quota=2) as fabric:
        ks = _keys_owned_by(fabric, 0, 4)
        outcomes = [
            fabric.request("mallory", _conf(), "poly", 0, k).outcome
            for k in ks
        ]
        assert outcomes == ["cold", "cold", "shed", "shed"]
        shed = fabric.request("mallory", _conf(), "poly", 0, ks[3])
        assert shed.reason == "tenant-quota-exceeded"
        assert shed.entry == shed.original, "a shed caller keeps the original"
        # another tenant still gets a queue slot on the same shard
        alice_k = _keys_owned_by(fabric, 0, 5)[4]
        assert fabric.request("alice", _conf(), "poly", 0, alice_k).outcome == "cold"
        assert fabric.metrics.value("fabric.tenant.mallory.shed") == 3
        assert fabric.metrics.value("fabric.tenant.alice.shed") == 0


def test_weighted_fair_dequeue_respects_weights():
    with RewriteFabric(
        SOURCE, shards=2, seed=3, default_quota=8,
        weights={"heavy": 3}, work_per_tick=4,
    ) as fabric:
        heavy_ks = _keys_owned_by(fabric, 0, 3, fn="poly")
        light_ks = _keys_owned_by(fabric, 0, 3, fn="mix")
        for k in heavy_ks:
            fabric.request("heavy", _conf(), "poly", 0, k)
        for k in light_ks:
            fabric.request("light", _conf(), "mix", 0, k)
        shard = fabric.shards[0]
        assert shard.queue_depth("heavy") == 3 and shard.queue_depth("light") == 3
        fabric.pump()
        # budget 4, rotation starts at "heavy" on the first tick:
        # heavy takes its weight (3), light takes 1
        assert shard.queue_depth("heavy") == 0
        assert shard.queue_depth("light") == 2


# ---------------------------------------------------------------- health
def test_stall_walks_suspect_then_dead_with_degraded_requests():
    with RewriteFabric(
        SOURCE, shards=3, seed=9, suspect_after=2.0, dead_after=4.0,
    ) as fabric:
        k = _keys_owned_by(fabric, 1, 1)[0]
        fabric.pump()  # everyone beats once
        fabric.stall_shard(1)
        fabric.pump(2)
        assert fabric.shards[1].state == SHARD_SUSPECT
        route = fabric.call("alice", _conf(), "poly", 5, k)
        assert route.outcome == "degraded" and route.reason == "shard-stalled"
        assert route.run.int_return == 5 * k + k, "degraded is still correct"
        fabric.pump(2)
        assert fabric.shards[1].state == SHARD_DEAD
        assert fabric.failover_log[-1][0] == 1
        # the dead shard's keys re-route to a live successor
        after = fabric.request("alice", _conf(), "poly", 0, k)
        assert after.shard != 1 and after.outcome in ("cold", "warm")


def test_stalled_shard_that_resumes_beating_recovers():
    with RewriteFabric(
        SOURCE, shards=2, seed=9, suspect_after=2.0, dead_after=6.0,
    ) as fabric:
        fabric.pump()
        fabric.stall_shard(0)
        fabric.pump(2)
        assert fabric.shards[0].state == SHARD_SUSPECT
        fabric.unstall_shard(0)
        fabric.pump()
        assert fabric.shards[0].state == SHARD_HEALTHY
        assert fabric.metrics.value("fabric.recovered") == 1


def test_crash_failover_warm_starts_the_successor(tmp_path):
    with RewriteFabric(
        SOURCE, shards=3, seed=5, snapshot_dir=tmp_path,
        checkpoint_interval=1,
    ) as fabric:
        k = _keys_owned_by(fabric, 2, 1)[0]
        fabric.request("alice", _conf(), "poly", 0, k)
        fabric.pump()  # performs the rewrite and checkpoints every shard
        fabric.crash_shard(2)
        assert fabric.shards[2].state == SHARD_DEAD
        assert fabric.live_shards() == [0, 1]
        assert fabric.failover_log == [(2, "crash: operator kill", "shard-dead")]
        assert fabric.metrics.value("fabric.warm_starts") == 1
        assert fabric.metrics.value("fabric.warm_start_restored") >= 1
        # the key is served by a live shard, still correctly
        route = fabric.call("alice", _conf(), "poly", 6, k)
        assert route.shard != 2 and route.outcome in ("warm", "cold")
        assert route.run.int_return == 6 * k + k


def test_all_shards_dead_is_an_outage_not_an_exception():
    with RewriteFabric(SOURCE, shards=2, seed=5) as fabric:
        fabric.crash_shard(0)
        fabric.crash_shard(1)
        route = fabric.call("alice", _conf(), "poly", 4, 3)
        assert route.outcome == "degraded" and route.reason == "shard-dead"
        assert route.shard == -1
        assert route.run.int_return == 4 * 3 + 3


def test_heartbeats_count_live_shards_and_no_beat_makes_no_counter():
    """Each tick charges one heartbeat per live shard; an all-dead
    fabric's tick charges none, so it creates no counter."""
    with RewriteFabric(SOURCE, shards=3, seed=5) as fabric:
        fabric.crash_shard(0)
        fabric.pump(4)
        assert fabric.metrics.value("fabric.heartbeats") == 2 * 4
    with RewriteFabric(SOURCE, shards=2, seed=5) as fabric:
        fabric.crash_shard(0)
        fabric.crash_shard(1)
        fabric.pump(3)
        counters = fabric.metrics.as_dict()["counters"]
        assert counters["fabric.ticks"] == 3
        assert "fabric.heartbeats" not in counters


def test_partition_degrades_then_heals_through_the_breaker():
    with RewriteFabric(SOURCE, shards=2, seed=5) as fabric:
        k = _keys_owned_by(fabric, 1, 1)[0]
        fabric.partition_shard(1, attempts=64)
        route = fabric.request("alice", _conf(), "poly", 0, k)
        assert route.outcome == "degraded" and route.reason == "link-partition"
        assert fabric.metrics.value("fabric.link_failures") == 1
        fabric.heal_shard(1)
        fabric.pump(3)  # epochs pass; the breaker half-opens
        healed = fabric.request("alice", _conf(), "poly", 0, k)
        assert healed.outcome == "cold"


def test_partition_latches_exactly_its_attempts_and_keeps_the_profile():
    """An operator partition takes the link down for exactly the
    attempts asked for and leaves the link's fault profile alone, so
    the next attempt meets the faults the interconnect was given."""
    with RewriteFabric(SOURCE, shards=2, seed=5) as fabric:
        transfers = fabric.transfers
        transfers.set_faults(FaultProfile(drop=1.0))
        fabric.partition_shard(0, attempts=3)
        links = [transfers.link_for(fabric._node(s)) for s in fabric.shards]
        assert links[0].faults == links[1].faults
        report = transfers.transfer(fabric._node(fabric.shards[0]),
                                    fabric._stage_src, fabric._stage_dst,
                                    REQUEST_BYTES)
        assert report.statuses == ("partition",) * 3 + ("drop",)


# ------------------------------------------------------- injection seams
def test_injected_shard_crash_is_contained_and_fails_over():
    with RewriteFabric(SOURCE, shards=3, seed=7) as fabric:
        route = fabric.request("alice", _conf(), "poly", 0, 3)
        with FaultInjector("shard-crash", nth=1) as fault:
            fabric.pump()
        assert fault.fired
        assert fabric.shards[route.shard].state == SHARD_DEAD
        assert fabric.failover_log[-1][2] == EXPECTED_REASON["shard-crash"]
        assert fabric.metrics.value("fabric.crashes") == 1
        # the crash never escaped and the key is servable elsewhere
        after = fabric.call("alice", _conf(), "poly", 5, 3)
        assert after.run.int_return == 5 * 3 + 3


def test_injected_shard_stall_surfaces_the_documented_reason():
    with RewriteFabric(
        SOURCE, shards=2, seed=7, suspect_after=2.0, dead_after=9.0,
    ) as fabric:
        k = _keys_owned_by(fabric, 0, 1)[0]
        with FaultInjector("shard-stall", nth=1) as fault:
            fabric.pump(3)  # shard 0's first beat is swallowed, latched
            assert fault.fired
            assert fabric.shards[0].state == SHARD_SUSPECT
            route = fabric.request("alice", _conf(), "poly", 0, k)
        assert route.outcome == "degraded"
        assert route.reason == EXPECTED_REASON["shard-stall"]


def test_injected_tenant_flood_sheds_with_the_documented_reason():
    with RewriteFabric(SOURCE, shards=2, seed=7) as fabric:
        with FaultInjector("tenant-flood", nth=1) as fault:
            route = fabric.request("alice", _conf(), "poly", 0, 3)
        assert fault.fired
        assert route.outcome == "shed"
        assert route.reason == EXPECTED_REASON["tenant-flood"]
        # the seam is gone and quota state was untouched: re-request queues
        assert fabric.request("alice", _conf(), "poly", 0, 3).outcome == "cold"


# --------------------------------------------------------- observability
def test_metrics_snapshot_namespaces_each_shard_deterministically():
    with RewriteFabric(SOURCE, shards=2, seed=5) as fabric:
        for k in range(3, 11):  # enough keys that both shards see work
            fabric.request("alice", _conf(), "poly", 0, k)
        fabric.pump(4)
        snap = fabric.metrics_snapshot()
        assert snap.value("fabric.requests") == 8
        merged = snap.as_dict()["counters"]
        assert any(n.startswith("fabric.shard0.") for n in merged)
        assert any(n.startswith("fabric.shard1.") for n in merged)
        assert snap.snapshot_json() == fabric.metrics_snapshot().snapshot_json()


def test_fabric_close_is_idempotent():
    fabric = RewriteFabric(SOURCE, shards=2, seed=5)
    fabric.request("alice", _conf(), "poly", 0, 3)
    fabric.pump()
    fabric.close()
    fabric.close()
    for shard in fabric.shards:
        assert shard.service._closed


def test_rejects_zero_shards():
    with pytest.raises(ValueError):
        RewriteFabric(SOURCE, shards=0)


def test_closed_fabric_is_deaf_and_degrades_callers():
    fabric = RewriteFabric(SOURCE, shards=2, seed=5)
    fabric.request("alice", _conf(), "poly", 0, 3)
    fabric.pump()
    fabric.close()
    route = fabric.request("alice", _conf(), "poly", 0, 3)
    assert route.outcome == "degraded"
    assert route.reason == "shard-dead"
    assert route.entry == route.original, "at worst the original"
    assert fabric.pump(5) == 0, "a closed fabric never ticks"
    assert fabric.metrics.value("fabric.closed_requests") == 1


def test_close_closes_every_shard_service():
    """An explicit close shuts every shard's private service down, and
    the variants they published stay in their own managers."""
    fabric = RewriteFabric(SOURCE, shards=3, seed=5)
    route = fabric.request("alice", _conf(), "poly", 0, 3)
    fabric.pump(2)
    fabric.close()
    for shard in fabric.shards:
        assert shard.service._closed and shard.service.pending() == 0
        assert len(shard.manager.published_entries()) == (
            shard.index == route.shard)


def test_context_manager_close_parity_with_service():
    """`with RewriteFabric(...)` closes exactly like an explicit
    close(): idempotent, deaf afterwards, shards all shut down."""
    with RewriteFabric(SOURCE, shards=2, seed=5) as fabric:
        assert fabric.request("alice", _conf(), "poly", 0, 3).outcome == "cold"
    assert all(s.service._closed for s in fabric.shards)
    fabric.close()  # second close after __exit__ is a no-op
    assert fabric.request("alice", _conf(), "poly", 0, 3).outcome == "degraded"
