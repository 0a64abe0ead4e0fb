"""Sharded rewrite fabric: fault-isolated specialization domains.

One :class:`~repro.service.rewrite_service.RewriteService` behind one
bounded queue (PR 4) is a single fault domain: a wedged or crashed
manager takes every tenant down with it.  This module scales the
service out the way BAAR distributes runtime rewriting across many
cores and Zipr makes robustness the headline property of a rewriter
(PAPERS.md): **many isolated rewrite domains, any of which can fail,
none of which can corrupt or wedge the others.**

Architecture
------------
* :class:`RewriteShard` — one *bulkhead*: a private simulated machine
  (every shard loads the same deterministic program image, so cache
  keys and emitted layouts are portable across shards), a private
  :class:`~repro.obs.Metrics` registry (surfaced under
  ``fabric.shard<i>.*``), a private
  :class:`~repro.core.manager.SpecializationManager`, which holds the
  shard's published variants and quarantine state, and a private
  ``RewriteService``.  Nothing is shared between shards — a fault in
  one shard *cannot* touch another's manager, by construction.

* :class:`RewriteFabric` — the router.  Requests are keyed by the same
  deterministic fingerprint the manager caches under and assigned to a
  shard by **rendezvous (highest-random-weight) hashing** over the live
  shards, so a shard death re-routes only the dead shard's keys.  Every
  request crosses the modelled interconnect (:mod:`repro.machine.link`:
  seeded drop/corrupt/delay/partition faults, CRC-checksummed retries
  with backoff, per-shard circuit breakers), as does every published
  variant and every failover snapshot — degradation has an honest,
  measured cost in cycles.

* **Per-tenant admission** rides on top of the PR-4 shed policy:
  deterministic per-tenant queue quotas (``tenant-quota-exceeded``) and
  weighted-fair dequeue at :meth:`RewriteFabric.pump`, so one hostile
  tenant flooding requests degrades only its own latency.

* **Health** is a deterministic heartbeat/watchdog in modelled ticks
  (injectable clock, same pattern as ``core/resilience.py`` deadlines):
  a silent shard is suspected (``shard-stalled`` — requests answered
  with the original), then declared dead (``shard-dead``): its pending
  work is drained and re-routed, and the rendezvous successor
  warm-starts from the dead shard's last :mod:`repro.core.persist`
  checkpoint — restored variants republish **on probation** and must
  shadow-validate before rejoining steady state, and the persist
  layer's per-entry ``snapshot-stale`` / ``snapshot-collision`` guards
  protect the successor's own live state.

The contract every layer already honors extends here: a caller
observing a mid-failover key, a partitioned link, a stalled shard or an
exhausted quota simply gets the **original** function — never a wrong
answer, never an escaping exception.  The EXT-7 experiment
(:mod:`repro.experiments.fabric_exp`) proves it at 10^5-request scale.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.manager import SpecializationManager, portable_key
from repro.errors import RewriteFailure
from repro.machine import link as interconnect
from repro.machine.link import TransferManager
from repro.machine.vm import Machine
from repro.obs import Metrics
from repro.service.rewrite_service import RewriteService

#: Shard health states, in degradation order.
SHARD_HEALTHY = "healthy"
SHARD_SUSPECT = "suspect"
SHARD_DEAD = "dead"

#: Modelled cost of the router's shard lookup (rendezvous hash + table
#: probe), charged to every request on top of interconnect latency.
ROUTE_LOOKUP_CYCLES = 40

#: Size of the control-plane request envelope on the wire, in bytes.
REQUEST_BYTES = 128

#: Router-side staging-buffer size; body/snapshot transfers are clamped
#: to this (the payload bytes themselves stay in the shard image — the
#: link models latency and fault exposure, not content placement).
STAGE_BYTES = 4096

#: Entries of the router's route memo (``(fn, key)`` -> ``(digest,
#: owner)``, see :meth:`RewriteFabric.request`); the oldest goes first.
ROUTE_MEMO_SIZE = 2048

#: A shard manager's first quarantine backoff and its cap, in fabric
#: ticks (the manager doubles the backoff per failure up to the cap).
SHARD_BACKOFF_TICKS = 2.0
SHARD_MAX_BACKOFF_TICKS = 32.0


def _digest(fn, key: tuple) -> str:
    """The routing digest of a manager key (see ``route_digest``)."""
    return hashlib.sha1(repr(portable_key(fn, key)).encode()).hexdigest()


class FabricClock:
    """The fabric's injectable time source: a tick counter advanced
    once per :meth:`RewriteFabric.pump`.  Doubles as the shard
    managers' backoff clock, so quarantine windows are measured in
    fabric ticks and replay identically across runs and hosts."""

    def __init__(self) -> None:
        self.now = 0.0

    def tick(self) -> float:
        self.now += 1.0
        return self.now

    def __call__(self) -> float:
        return self.now


@dataclass
class RouteResult:
    """What the fabric did with one request.

    ``outcome`` is one of ``warm`` (published entry returned), ``cold``
    (original returned, rewrite queued on the owner), ``coalesced``
    (original returned, an identical rewrite is already queued),
    ``shed`` (original returned, per-tenant quota rejected the queue
    slot) or ``degraded`` (original returned because the owner is
    stalled/dead or the interconnect failed; ``reason`` carries the
    taxonomy tag).  ``entry`` is always executable on ``shard_ref``'s
    machine and is never a wrong answer — at worst it is the original.
    """

    tenant: str
    shard: int
    outcome: str
    entry: int
    original: int
    cycles: int
    reason: str | None = None
    shard_ref: "RewriteShard | None" = field(default=None, repr=False)
    run: object | None = field(default=None, repr=False)


class RewriteShard:
    """One fault-isolated rewrite domain (see module docstring).

    Everything mutable lives behind this object: machine, metrics,
    manager, service, per-tenant pending queues, health state.  The
    fabric only ever touches a shard through its public surface, and
    no shard object references another shard.
    """

    def __init__(
        self,
        index: int,
        source: str,
        *,
        seed: int = 0,
        clock: FabricClock | None = None,
        shadow_interval: int = 7,
    ) -> None:
        self.index = index
        self.state = SHARD_HEALTHY
        self.stalled = False
        self.last_beat = 0.0
        self.machine = Machine()
        self.machine.load(source)
        self.metrics = Metrics()
        self.manager = SpecializationManager(
            self.machine, metrics=self.metrics,
            clock=clock if clock is not None else FabricClock(),
            backoff_seconds=SHARD_BACKOFF_TICKS,
            max_backoff_seconds=SHARD_MAX_BACKOFF_TICKS,
        )
        self.service = RewriteService(
            self.machine, manager=self.manager, metrics=self.metrics,
            shadow_interval=shadow_interval, shadow_seed=(seed << 4) ^ index,
            retry_budget=16,
        )
        #: tenant -> deque of pending work items (fabric-level queue;
        #: the weighted-fair pump drains it into the service).
        self.pending: dict[str, deque] = {}
        #: routing digests currently queued (request coalescing).
        self.queued_digests: set[str] = set()

    # ------------------------------------------------------------- health
    def heartbeat(self, now: float) -> None:
        """Record one liveness beat.  The ``shard-stall`` injection
        seam (and :meth:`RewriteFabric.stall_shard`) suppresses beats;
        the fabric watchdog does the rest."""
        if self.stalled:
            return
        self.last_beat = now

    # --------------------------------------------------------------- work
    def perform(self, work: tuple) -> None:
        """Run one dequeued rewrite to completion on this shard's
        private service (the ``shard-crash`` injection seam; an
        exception escaping here is *this shard dying*, which the fabric
        converts into a failover, never into a wrong answer).  ``work``
        carries the manager key the fabric already derived, so the
        service dispatches on it instead of deriving it again."""
        key, conf, fn, args = work
        self.service._dispatch(key, conf, fn, args)
        self.service.drain()

    def queue_depth(self, tenant: str | None = None) -> int:
        """Pending fabric-level work (for ``tenant``, or in total)."""
        if tenant is not None:
            q = self.pending.get(tenant)
            return len(q) if q is not None else 0
        return sum(len(q) for q in self.pending.values())

    def checkpoint(self, path) -> None:
        """Persist this shard's specialization state (crash-safe)."""
        self.service.save_snapshot(path)

    def close(self) -> None:
        self.service.close()


class RewriteFabric:
    """N fault-isolated rewrite shards behind one deterministic router
    (see the module docstring for the architecture).

    ``source`` is the minic program every shard loads (identical
    deterministic images make cache keys and snapshot layouts portable
    across shards, which is what makes warm-start failover sound).
    Every tenant may have ``default_quota`` requests pending on each
    shard; ``weights`` maps tenant name to its dequeue weight (``1``
    otherwise).  The interconnect starts clean (``transfers.set_faults``
    degrades it), and its links draw their fates from ``seed`` too;
    ``snapshot_dir`` enables periodic checkpoints and warm-start
    failover.  Everything is seeded and tick-driven — two fabrics built
    with the same arguments replay bit-for-bit.
    """

    def __init__(
        self,
        source: str,
        *,
        shards: int = 4,
        seed: int = 0,
        default_quota: int = 8,
        weights: dict[str, int] | None = None,
        work_per_tick: int = 4,
        suspect_after: float = 3.0,
        dead_after: float = 6.0,
        checkpoint_interval: int = 16,
        snapshot_dir: str | Path | None = None,
        shadow_interval: int = 7,
        forensics=None,
    ) -> None:
        if shards < 1:
            raise ValueError("a fabric needs at least one shard")
        self.source = source
        self.seed = seed
        self.default_quota = default_quota
        self.weights = dict(weights or {})
        self.work_per_tick = work_per_tick
        self.suspect_after = suspect_after
        self.dead_after = dead_after
        self.checkpoint_interval = checkpoint_interval
        self.snapshot_dir = Path(snapshot_dir) if snapshot_dir else None
        self.clock = FabricClock()
        self.metrics = Metrics()
        self.shards = [
            RewriteShard(
                i, source, seed=seed, clock=self.clock,
                shadow_interval=shadow_interval,
            )
            for i in range(shards)
        ]
        # the router: its own machine whose only job is to stage
        # control-plane envelopes, variant bodies and snapshots through
        # the modelled interconnect (every transfer charges cycles here)
        self.router = Machine()
        self._stage_src = self.router.image.malloc(STAGE_BYTES)
        self._stage_dst = self.router.image.malloc(STAGE_BYTES)
        self.transfers = TransferManager(self.router, seed=seed)
        #: Optional :class:`~repro.core.forensics.ForensicsHub`: every
        #: tick journals the heartbeat/state picture on the ``fabric``
        #: channel and every declared death captures a crash bundle
        #: whose evidence (moved digests, live candidates, thresholds)
        #: replays as a pure re-execution of watchdog + rendezvous.
        self.forensics = forensics
        #: ``(shard, cause, reason)`` rows, one per declared death.
        self.failover_log: list[tuple[int, str, str]] = []
        #: The route memo: ``(fn, manager key)`` -> ``(digest, owner)``.
        #: A route depends only on ``str(fn)`` and ``key[1:]`` (the
        #: digest) and on the live-shard set, which changes only in
        #: :meth:`_declare_dead`, and that clears the memo.
        self._routes: dict[tuple, tuple[str, RewriteShard | None]] = {}
        self._ticks = 0
        self._rr_offset = 0
        self._closed = False

    # ------------------------------------------------------------ routing
    def _key_for(self, conf, fn, args: tuple) -> tuple:
        """The manager key every shard files ``(fn, conf, args)`` under
        (shards load the same image, so any shard's manager derives it)."""
        return self.shards[0].manager.key_for(fn, conf, args)

    def route_digest(self, conf, fn, args: tuple) -> str:
        """The machine-independent routing key: a digest of the manager
        key with its per-machine address replaced by ``str(fn)``."""
        return _digest(fn, self._key_for(conf, fn, args))

    def _owner_for(self, digest: str) -> RewriteShard | None:
        """Rendezvous hashing over the non-dead shards: every key
        independently picks the live shard with the highest seeded
        score, so a shard death moves only that shard's keys (each to
        its own successor) and nothing else re-shuffles."""
        best = None
        best_score = b""
        for shard in self.shards:
            if shard.state == SHARD_DEAD:
                continue
            score = hashlib.sha1(
                f"{digest}|{self.seed}|{shard.index}".encode()
            ).digest()
            if best is None or score > best_score:
                best, best_score = shard, score
        return best

    def _node(self, shard: RewriteShard) -> int:
        return shard.index

    # ---------------------------------------------------------- admission
    def _admit_tenant(self, tenant: str, shard: RewriteShard) -> str | None:
        """Per-tenant admission: ``None`` to enqueue, else the shed
        reason.  Deterministic — the decision depends only on the
        tenant's current pending depth on its home shard (the
        ``tenant-flood`` injection seam)."""
        if shard.queue_depth(tenant) >= self.default_quota:
            return f"tenant {tenant!r} quota full (quota {self.default_quota})"
        return None

    def _weight(self, tenant: str) -> int:
        return max(1, self.weights.get(tenant, 1))

    # ------------------------------------------------------------------ api
    def request(self, tenant: str, conf, fn, *args) -> RouteResult:
        """Route one rewrite request (never blocks, never raises).

        See :class:`RouteResult` for the outcome vocabulary; whatever
        happens, the returned ``entry`` is executable and correct —
        at worst it is the original function on the owning shard's
        machine."""
        return self._route(tenant, self._key_for(conf, fn, args), conf, fn, args)

    def _route(self, tenant: str, key: tuple, conf, fn, args: tuple) -> RouteResult:
        """:meth:`request` for an already derived manager ``key``."""
        if self._closed:
            # a closed fabric is deaf: nothing queues, nothing pumps,
            # callers degrade to the original (same shape as an outage)
            failure = RewriteFailure("shard-dead", "fabric closed")
            shard = self.shards[0]
            original = shard.machine.image.resolve(fn)
            self.metrics.inc("fabric.closed_requests")
            return RouteResult(
                tenant, -1, "degraded", original, original,
                ROUTE_LOOKUP_CYCLES, reason=failure.reason, shard_ref=shard,
            )
        self.metrics.inc("fabric.requests")
        self.metrics.inc(f"fabric.tenant.{tenant}.requests")
        routes = self._routes
        route = routes.get((fn, key))
        if route is None:
            if len(routes) >= ROUTE_MEMO_SIZE:
                del routes[next(iter(routes))]  # oldest first
            digest = _digest(fn, key)
            route = routes[fn, key] = (digest, self._owner_for(digest))
        digest, owner = route
        if owner is None:
            # every shard is dead: total fabric outage, serve originals
            failure = RewriteFailure(
                "shard-dead", "no live shard: fabric-wide outage"
            )
            shard = self.shards[0]
            original = shard.machine.image.resolve(fn)
            self.metrics.inc("fabric.degraded")
            self.metrics.record("fabric.dispatch_cycles", ROUTE_LOOKUP_CYCLES)
            return RouteResult(
                tenant, -1, "degraded", original, original,
                ROUTE_LOOKUP_CYCLES, reason=failure.reason, shard_ref=shard,
            )
        original = owner.machine.image.resolve(fn)
        if owner.state == SHARD_SUSPECT:
            # a stalled shard is silence, not an error: the caller's
            # request times out on the wire and degrades to the original
            failure = RewriteFailure(
                "shard-stalled",
                f"shard {owner.index} suspected stalled (missed heartbeats)",
            )
            cycles = ROUTE_LOOKUP_CYCLES + interconnect.TIMEOUT_CYCLES
            self.metrics.inc("fabric.degraded")
            self.metrics.inc("fabric.stall_degraded")
            self.metrics.record("fabric.dispatch_cycles", cycles)
            return RouteResult(
                tenant, owner.index, "degraded", original, original,
                cycles, reason=failure.reason, shard_ref=owner,
            )
        # control plane: the request envelope crosses the interconnect
        report = self.transfers.transfer(
            self._node(owner), self._stage_src, self._stage_dst, REQUEST_BYTES
        )
        cycles = ROUTE_LOOKUP_CYCLES + report.cycles
        self.metrics.record("fabric.dispatch_cycles", cycles)
        if not report.ok:
            self.metrics.inc("fabric.degraded")
            self.metrics.inc("fabric.link_failures")
            return RouteResult(
                tenant, owner.index, "degraded", original, original,
                cycles, reason=report.reason, shard_ref=owner,
            )
        entry = owner.manager.published(key)
        if entry is not None:
            self.metrics.inc("fabric.warm_hits")
            return RouteResult(
                tenant, owner.index, "warm", entry, original, cycles,
                shard_ref=owner,
            )
        self.metrics.inc("fabric.cold_misses")
        if digest in owner.queued_digests:
            self.metrics.inc("fabric.coalesced")
            return RouteResult(
                tenant, owner.index, "coalesced", original, original,
                cycles, shard_ref=owner,
            )
        shed = self._admit_tenant(tenant, owner)
        if shed is not None:
            failure = RewriteFailure("tenant-quota-exceeded", shed)
            self.metrics.inc("fabric.tenant_shed")
            self.metrics.inc(f"fabric.tenant.{tenant}.shed")
            return RouteResult(
                tenant, owner.index, "shed", original, original, cycles,
                reason=failure.reason, shard_ref=owner,
            )
        owner.pending.setdefault(tenant, deque()).append(
            (digest, key, conf.copy(), fn, tuple(args))
        )
        owner.queued_digests.add(digest)
        return RouteResult(
            tenant, owner.index, "cold", original, original, cycles,
            shard_ref=owner,
        )

    def call(self, tenant: str, conf, fn, *args) -> RouteResult:
        """Route *and execute*: the assured fabric entry point.

        Warm hits dispatch through the owner service's shadow-validated
        :meth:`~repro.service.rewrite_service.RewriteService.call` path
        (probation entries re-validate before admission; sampled calls
        never return a wrong answer); every other outcome executes the
        original directly.  The run lands on ``RouteResult.run``.  The
        manager key is derived once, for the route and the warm call."""
        key = self._key_for(conf, fn, args)
        route = self._route(tenant, key, conf, fn, args)
        shard = route.shard_ref
        if route.outcome == "warm":
            route.run = shard.service._call(key, conf, fn, args, None)
        else:
            route.run = shard.machine.call(route.original, *args)
        return route

    def pump(self, rounds: int = 1) -> int:
        """Advance the fabric ``rounds`` ticks; returns rewrites run.

        One tick: advance the injectable clock and the breaker epoch,
        collect heartbeats, run the watchdog (suspect → dead
        transitions, with failover), dequeue up to ``work_per_tick``
        pending rewrites per healthy shard **weighted-fair across
        tenants**, publish finished variants across the interconnect,
        and take periodic checkpoints."""
        if self._closed:
            return 0
        performed = 0
        for _ in range(rounds):
            self._ticks += 1
            self.metrics.inc("fabric.ticks")
            now = self.clock.tick()
            self.transfers.advance_epoch()
            beats = 0
            for shard in self.shards:
                if shard.state != SHARD_DEAD:
                    shard.heartbeat(now)
                    beats += 1
            if beats:  # no beat, no counter: the snapshot keeps its keys
                self.metrics.inc("fabric.heartbeats", beats)
            if self.forensics is not None:
                # the per-tick picture the death-replay state machine
                # consumes: recorded after heartbeats, before the
                # watchdog judges them
                self.forensics.journal("fabric", "tick", {
                    "tick": now,
                    "beats": {
                        str(s.index): s.last_beat for s in self.shards
                    },
                    "states": {str(s.index): s.state for s in self.shards},
                })
            self._watchdog(now)
            for shard in self.shards:
                if shard.state == SHARD_HEALTHY:
                    performed += self._pump_shard(shard)
            if (
                self.snapshot_dir is not None
                and self._ticks % self.checkpoint_interval == 0
            ):
                for shard in self.shards:
                    if shard.state == SHARD_HEALTHY:
                        shard.checkpoint(self._snapshot_path(shard.index))
                        self.metrics.inc("fabric.checkpoints")
            self._rr_offset += 1
        return performed

    # ----------------------------------------------------------- internal
    def _watchdog(self, now: float) -> None:
        """Walk silent shards down the ladder: HEALTHY → SUSPECT after
        ``suspect_after`` silent ticks, → DEAD (with failover) after
        ``dead_after``.  A shard that resumes beating recovers."""
        for shard in self.shards:
            if shard.state == SHARD_DEAD:
                continue
            silence = now - shard.last_beat
            if silence >= self.dead_after:
                self._declare_dead(shard, "heartbeat-timeout")
            elif silence >= self.suspect_after:
                if shard.state == SHARD_HEALTHY:
                    shard.state = SHARD_SUSPECT
                    self.metrics.inc("fabric.suspected")
            elif shard.state == SHARD_SUSPECT:
                shard.state = SHARD_HEALTHY
                self.metrics.inc("fabric.recovered")

    def _pump_shard(self, shard: RewriteShard) -> int:
        """Weighted-fair dequeue for one healthy shard: rotate over the
        tenants (rotation advances every tick so no tenant owns the
        front slot), letting each take up to its weight per pass, until
        the per-tick work budget is spent or the queues are empty."""
        if not any(shard.pending.values()):
            return 0  # an idle tick: every tenant queue is empty
        budget = self.work_per_tick
        performed = 0
        tenants = sorted(shard.pending)
        start = self._rr_offset % len(tenants)
        progress = True
        while budget > 0 and progress:
            progress = False
            for i in range(len(tenants)):
                tenant = tenants[(start + i) % len(tenants)]
                q = shard.pending.get(tenant)
                take = min(self._weight(tenant), budget, len(q) if q else 0)
                for _ in range(take):
                    work = q.popleft()
                    budget -= 1
                    progress = True
                    if not self._run_work(shard, work):
                        return performed  # the shard just died
                    performed += 1
                if budget <= 0:
                    break
        return performed

    def _run_work(self, shard: RewriteShard, work: tuple) -> bool:
        """Execute one dequeued item on ``shard``; False when the shard
        crashed (it has been declared dead and drained)."""
        digest, key, conf, fn, args = work
        shard.queued_digests.discard(digest)
        published_before = shard.manager.published(key)
        try:
            shard.perform((key, conf, fn, args))
        except Exception as exc:  # the bulkhead: a crash is contained
            self.metrics.inc("fabric.crashes")
            self._declare_dead(shard, f"crash: {exc}")
            return False
        self.metrics.inc("fabric.performed")
        entry = shard.manager.published(key)
        if entry is not None and published_before is None:
            self._publish_transfer(shard, key, entry)
        return True

    def _publish_transfer(self, shard: RewriteShard, key, entry: int) -> None:
        """Ship a freshly published variant's body across the
        interconnect (checksummed, retried); a terminal link failure
        withdraws the publication — the variant stays cached on the
        shard, but callers keep the original until a later request
        republishes it over a healed link."""
        cached = shard.manager.cached_result(key)
        size = cached.code_size if cached is not None and cached.ok else 0
        nbytes = max(8, min(size or REQUEST_BYTES, STAGE_BYTES))
        report = self.transfers.transfer(
            self._node(shard), self._stage_src, self._stage_dst, nbytes
        )
        if report.ok:
            self.metrics.inc("fabric.published")
            return
        self.metrics.inc("fabric.publish_link_failures")
        if shard.manager.withdraw(key):
            self.metrics.inc("fabric.publish_withdrawn")

    def _snapshot_path(self, index: int) -> Path:
        return self.snapshot_dir / f"shard{index}.snap"

    def _declare_dead(self, shard: RewriteShard, cause: str) -> None:
        """Failover: mark ``shard`` dead, drain and re-route its
        pending work by rendezvous hashing, and warm-start the primary
        successor from the dead shard's last checkpoint (restored
        variants republish on probation; the persist layer's per-entry
        stale/collision guards protect the successor's live state)."""
        if shard.state == SHARD_DEAD:
            return
        shard.state = SHARD_DEAD
        self._routes.clear()  # the live set changed: every route is stale
        failure = RewriteFailure(
            "shard-dead", f"shard {shard.index} declared dead ({cause})"
        )
        self.failover_log.append((shard.index, cause, failure.reason))
        self.metrics.inc("fabric.deaths")
        moved = dropped = 0
        moved_pairs: list[list] = []
        for tenant in sorted(shard.pending):
            for work in shard.pending[tenant]:
                digest = work[0]
                successor = self._owner_for(digest)
                if (
                    successor is not None
                    and digest not in successor.queued_digests
                    and self._admit_tenant(tenant, successor) is None
                ):
                    successor.pending.setdefault(tenant, deque()).append(work)
                    successor.queued_digests.add(digest)
                    moved += 1
                    moved_pairs.append([digest, successor.index])
                else:
                    dropped += 1
        shard.pending.clear()
        shard.queued_digests.clear()
        if moved:
            self.metrics.inc("fabric.failover_moved", moved)
        if dropped:
            self.metrics.inc("fabric.failover_dropped", dropped)
        if self.forensics is not None:
            self.forensics.journal("fabric", "shard-death", {
                "shard": shard.index, "cause": cause, "moved": moved,
                "dropped": dropped,
            })
            self.forensics.capture_fabric_death(
                shard=shard.index, cause=cause, tick=self.clock.now,
                moved=moved_pairs, live=self.live_shards(), seed=self.seed,
                suspect_after=self.suspect_after, dead_after=self.dead_after,
                metrics=self.metrics,
            )
        self._warm_start_successor(shard)
        shard.close()

    def _warm_start_successor(self, dead: RewriteShard) -> None:
        """Restore the dead shard's last checkpoint into its rendezvous
        successor, shipping the snapshot over the interconnect first.
        A failed transfer means a cold failover — slower, never wrong."""
        if self.snapshot_dir is None:
            return
        snap = self._snapshot_path(dead.index)
        if not snap.exists():
            return
        successor = self._owner_for(f"failover-of-shard{dead.index}")
        if successor is None:
            return
        nbytes = max(8, min(snap.stat().st_size, STAGE_BYTES))
        report = self.transfers.transfer(
            self._node(successor), self._stage_src, self._stage_dst, nbytes
        )
        if not report.ok:
            self.metrics.inc("fabric.warm_start_failed")
            return
        restore = successor.service.restore_snapshot(snap)
        self.metrics.inc("fabric.warm_starts")
        if restore.restored_ok:
            self.metrics.inc(
                "fabric.warm_start_restored", len(restore.restored_ok)
            )
        if restore.rejected:
            self.metrics.inc(
                "fabric.warm_start_rejected", len(restore.rejected)
            )

    # -------------------------------------------------------------- chaos
    def crash_shard(self, index: int) -> None:
        """Kill a shard outright (the operator's ``kill -9``)."""
        self._declare_dead(self.shards[index], "crash: operator kill")

    def stall_shard(self, index: int) -> None:
        """Wedge a shard: it stops heartbeating (but is not yet dead —
        the watchdog must walk it through SUSPECT to DEAD)."""
        self.shards[index].stalled = True

    def unstall_shard(self, index: int) -> None:
        """Un-wedge a stalled shard (it resumes beating and recovers
        unless the watchdog already declared it dead)."""
        self.shards[index].stalled = False

    def partition_shard(self, index: int, attempts: int = 6) -> None:
        """Partition the link to a shard for its next ``attempts``
        transfer attempts (latched, like an organic partition); the
        link's fault profile stays as it is."""
        self.transfers.link_for(self._node(self.shards[index])).partition(
            attempts)

    def heal_shard(self, index: int) -> None:
        """Lift a partition on a shard's link."""
        self.transfers.link_for(self._node(self.shards[index])).heal()

    # ------------------------------------------------------------- health
    def live_shards(self) -> list[int]:
        return [s.index for s in self.shards if s.state != SHARD_DEAD]

    def metrics_snapshot(self) -> Metrics:
        """One fabric-level registry: the router's own ``fabric.*``
        metrics plus every shard's registry filed under
        ``fabric.shard<i>.*``, merged in deterministic shard order."""
        out = Metrics()
        out.merge(self.metrics)
        for shard in self.shards:
            out.merge(shard.metrics, prefix=f"fabric.shard{shard.index}.")
        return out

    def stats(self) -> dict:
        """Fabric health at a glance (plain ints, JSON-able)."""
        return {
            "shards": len(self.shards),
            "live": len(self.live_shards()),
            "states": {s.index: s.state for s in self.shards},
            "pending": {s.index: s.queue_depth() for s in self.shards},
            "requests": self.metrics.value("fabric.requests"),
            "warm_hits": self.metrics.value("fabric.warm_hits"),
            "cold_misses": self.metrics.value("fabric.cold_misses"),
            "coalesced": self.metrics.value("fabric.coalesced"),
            "tenant_shed": self.metrics.value("fabric.tenant_shed"),
            "degraded": self.metrics.value("fabric.degraded"),
            "performed": self.metrics.value("fabric.performed"),
            "deaths": self.metrics.value("fabric.deaths"),
            "warm_starts": self.metrics.value("fabric.warm_starts"),
            "ticks": self._ticks,
        }

    def close(self) -> None:
        """Shut every shard down deterministically and go deaf.

        Idempotent (parity with ``RewriteService.close()``): the first
        call closes every shard's private service, and later calls
        return immediately.  After close the fabric stays
        deaf: :meth:`request` degrades callers to the original and
        :meth:`pump` performs no work."""
        if self._closed:
            return
        self._closed = True
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> "RewriteFabric":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
