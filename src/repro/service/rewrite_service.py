"""The background rewrite queue (see the package docstring).

Keying
------
A request is keyed by :meth:`SpecializationManager.key_for`, derived
once from the caller's config.  Rewriting never mutates a config, so the
manager files the finished entry under that same key and the service
publishes it there, on the manager's cache entry itself
(:meth:`SpecializationManager.publish`): the manager's cache is the one
table of published variants.  A warm dispatch reads it through
:meth:`SpecializationManager.published`, which applies the same
freshness rule as a manager hit, so a variant whose known data changed
is evicted and never served, whether or not the write was announced.

Determinism
-----------
The service is part of the differential test surface: with a fixed seed,
two runs of the same workload must agree bit-for-bit, including the
metrics snapshot.  The service therefore never records host time — its
latency histogram is in *modelled cycles*,
``traced_instructions × REWRITE_CYCLES_PER_TRACED_INSN``, the same cost
model the EXT-4 amortization experiment uses for its crossover point.

Continuous assurance
--------------------
Three production hazards the PR-3 service ignored are handled here (the
EXT-5 soak experiment exercises all three end to end):

* **Silent miscompiles after publication** — construct the service with
  ``shadow_interval`` and dispatch through :meth:`call`: a deterministic
  seeded fraction of warm calls is shadow-executed against the original
  (:class:`~repro.core.shadowexec.ShadowSampler`); a divergence
  atomically withdraws the published entry, quarantines the key
  through the manager's backoff ladder under the ``shadow-divergence``
  reason, and records a minimized :class:`DivergenceRepro` (arguments +
  world signature) on :attr:`divergences`.

* **State loss on restart** — :meth:`save_snapshot` /
  :meth:`restore_snapshot` persist the manager's cache (versioned,
  per-record CRC; see :mod:`repro.core.persist`).  Restored variants are
  republished **on probation**: the first :meth:`call` shadow-validates
  each one before it rejoins steady-state sampling.

* **Overload** — ``max_queue_depth`` bounds the queue with a
  deterministic shed policy (the incoming request is rejected,
  ``service-shed``, callers keep the original), ``retry_budget`` caps
  background retries per key, and ``watchdog_max_trace_steps`` clamps
  every queued rewrite's trace budget so a stuck rewrite aborts into
  the supervisor's degradation ladder instead of wedging the queue.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.errors import RewriteFailure
from repro.core.config import RewriteConfig
from repro.core.manager import SpecializationManager
from repro.core.persist import RestoreReport, load_manager, save_manager
from repro.core.rewriter import RewriteResult
from repro.core.shadowexec import DivergenceRepro, ShadowSampler
from repro.obs import Metrics

#: Modelled cost of rewriting, in emulated cycles per traced
#: instruction.  Tracing decodes, partially evaluates and re-emits every
#: instruction it visits, so its cost is linear in trace length with a
#: large constant; 50 cycles/instruction is the order of magnitude the
#: paper's LLVM-backed measurements imply and — more importantly here —
#: a *deterministic* stand-in for host time, so amortization crossovers
#: and latency histograms are reproducible across runs and machines.
REWRITE_CYCLES_PER_TRACED_INSN = 50

#: How many shed events :attr:`RewriteService.shed_log` retains.
SHED_LOG_LIMIT = 32


def modeled_rewrite_cycles(result: RewriteResult) -> int:
    """The cycle-domain cost of a rewrite under the linear model."""
    return result.stats.traced_instructions * REWRITE_CYCLES_PER_TRACED_INSN


class RewriteService:
    """Accepts rewrite requests; never blocks the caller.

    Work waits in a queue until :meth:`step` or :meth:`drain` runs it on
    the calling thread, so every run is deterministic.

    Pass a ``manager`` (and optionally route its rewrites through a
    :class:`~repro.core.resilience.RewriteSupervisor` via the manager's
    ``rewrite_fn``) to share caching policy with synchronous callers;
    by default the service builds a private manager charging the same
    metrics registry.  Published variants live in that manager, which
    also counts ``service.withdrawn`` when an eviction drops one.
    ``shadow_interval`` opts the :meth:`call` dispatch path into online
    shadow validation (module docstring).
    """

    def __init__(
        self,
        machine,
        *,
        manager: SpecializationManager | None = None,
        metrics: Metrics | None = None,
        rewrite_fn: Callable[..., RewriteResult] | None = None,
        shadow_interval: int | None = None,
        shadow_seed: int = 0,
        max_queue_depth: int | None = None,
        retry_budget: int | None = None,
        watchdog_max_trace_steps: int | None = None,
        forensics=None,
    ) -> None:
        self.machine = machine
        if metrics is None:
            metrics = manager.metrics if manager is not None else Metrics()
        self.metrics = metrics
        if manager is None:
            manager = SpecializationManager(
                machine, rewrite_fn=rewrite_fn, metrics=metrics
            )
        self.manager = manager
        #: Optional :class:`~repro.core.forensics.ForensicsHub`: state
        #: changes and anomalies (cold miss, shed, publish, failure,
        #: divergence) are journaled on the ``service`` channel and every
        #: shadow divergence captures a crash bundle.  Warm hits are
        #: never journaled — the steady-state dispatch path must stay
        #: within EXT-9's ≤ 5 % overhead bound.
        self.forensics = forensics
        #: Online shadow sampler (None = :meth:`call` dispatches blind).
        self.shadow = (
            ShadowSampler(
                machine, interval=shadow_interval, seed=shadow_seed,
                metrics=metrics,
                recorder=forensics.recorder if forensics is not None else None,
            )
            if shadow_interval is not None
            else None
        )
        #: Minimized reproductions of every shadow divergence observed.
        self.divergences: list[DivergenceRepro] = []
        #: Most recent shed events as ``(key, message)`` (bounded).
        self.shed_log: deque = deque(maxlen=SHED_LOG_LIMIT)
        self.max_queue_depth = max_queue_depth
        self.retry_budget = retry_budget
        self.watchdog_max_trace_steps = watchdog_max_trace_steps
        self._retry_counts: dict = {}
        self._queue: deque = deque()
        self._inflight: set = set()
        self._closed = False
        #: keys whose next publication must start on probation (they
        #: were withdrawn for a shadow divergence and must re-validate)
        self._requalify: set = set()

    # ------------------------------------------------------------------ api
    def request(self, conf: RewriteConfig, fn, *args) -> int:
        """An entry point for ``fn`` under ``conf`` — *right now*.

        Warm hit: the published specialized entry, while the known
        memory it was specialized for is unchanged.  Cold miss: the
        original entry, with the rewrite queued in the background (one
        queue slot per key — concurrent requests for the same key
        coalesce).  Under overload the admission controller sheds the
        request instead of queueing it (the caller still gets the
        original — shedding is invisible except in the counters).  The
        caller never waits on a rewrite.
        """
        return self._dispatch(self.manager.key_for(fn, conf, args), conf, fn, args)

    def _dispatch(self, key, conf: RewriteConfig, fn, args: tuple) -> int:
        """:meth:`request` for an already derived ``key``."""
        self.metrics.inc("service.requests")
        entry = self.manager.published(key)
        if entry is not None:
            self.metrics.inc("service.warm_hits")
            return entry
        self.metrics.inc("service.cold_misses")
        self._journal("cold-miss", {"fn": str(fn)})
        original = self.machine.image.resolve(fn)
        if key in self._inflight:
            self.metrics.inc("service.coalesced")
            return original
        shed_reason = self._admit(key)
        if shed_reason is not None:
            failure = RewriteFailure("service-shed", shed_reason)
            self.metrics.inc("service.shed")
            self.shed_log.append((key, f"{failure.reason}: {failure}"))
            self._journal("shed", {"fn": str(fn), "why": shed_reason})
            return original
        self._inflight.add(key)
        # the caller may keep mutating its config before the rewrite
        # runs; snapshot it so the rewrite sees the requested state
        self._queue.append((key, conf.copy(), fn, tuple(args)))
        self.metrics.set("service.queue_depth", self.pending())
        return original

    def call(self, conf: RewriteConfig, fn, *args, max_steps: int | None = None):
        """Dispatch *and execute*: the continuously assured entry point.

        Resolves the current best entry as :meth:`request` does and runs it.
        When a shadow sampler is attached and this call is sampled (or
        the entry is on post-restore probation), the call is
        shadow-executed against the original: a matching variant keeps
        its effects and (if on probation) is admitted; a diverging one
        is rolled back, withdrawn, quarantined, and the caller receives
        the original's result — a sampled call never returns a wrong
        answer.  Returns the :class:`~repro.machine.cpu.RunResult`.
        """
        return self._call(
            self.manager.key_for(fn, conf, args), conf, fn, args, max_steps
        )

    def _call(self, key, conf: RewriteConfig, fn, args: tuple,
              max_steps: int | None):
        """:meth:`call` for an already derived ``key``."""
        entry = self._dispatch(key, conf, fn, args)
        original = self.machine.image.resolve(fn)
        run_kwargs = {} if max_steps is None else {"max_steps": max_steps}
        if entry == original or self.shadow is None:
            return self.machine.call(entry, *args, **run_kwargs)
        probation = self.manager.on_probation(key)
        if not probation and not self.shadow.decide(key):
            return self.machine.call(entry, *args, **run_kwargs)
        outcome = self.shadow.run_shadowed(entry, original, tuple(args), max_steps)
        if outcome.divergence is None:
            # a probation entry whose shadow call matched is trusted:
            # republished off probation, it rejoins steady-state sampling
            if (probation and not outcome.unjudged
                    and self.manager.publish(key, entry)):
                self.metrics.inc("shadow.probation_admits")
            return outcome.run
        self._handle_divergence(
            key, tuple(args), entry, original, outcome.divergence,
            conf=conf, fn=fn,
        )
        return outcome.run

    def step(self, limit: int = 1) -> int:
        """Run up to ``limit`` queued rewrites on the calling thread;
        returns how many were performed."""
        done = 0
        while self._queue and done < limit:
            self._perform(self._queue.popleft())
            done += 1
        return done

    def drain(self) -> int:
        """Finish all queued work; returns how many rewrites ran."""
        return self.step(limit=len(self._queue))

    def pending(self) -> int:
        """Rewrites accepted but not yet performed."""
        return len(self._queue)

    # -------------------------------------------------------- persistence
    def save_snapshot(self, path) -> None:
        """Persist the manager's cache (crash-safe: temp file + rename);
        see :mod:`repro.core.persist` for the format."""
        save_manager(self.manager, path)

    def restore_snapshot(self, path) -> RestoreReport:
        """Warm-restart path: restore the manager cache from ``path``
        and republish every restored variant **on probation** — each one
        is re-admitted only after one shadow-validated :meth:`call`.
        Corrupt or schema-mismatched records were rejected per entry by
        the loader (``snapshot-corrupt``); the report says which."""
        report = load_manager(self.manager, path)
        for key in report.restored_ok:
            result = self.manager.cached_result(key)
            if result is not None and result.entry is not None and (
                    self.manager.publish(key, result.entry, probation=True)):
                self.metrics.inc("service.restored_publishes")
        return report

    # ------------------------------------------------------------- health
    def stats(self) -> dict[str, int]:
        """Service-level health (manager stats are separate)."""
        return {
            "requests": self.metrics.value("service.requests"),
            "warm_hits": self.metrics.value("service.warm_hits"),
            "cold_misses": self.metrics.value("service.cold_misses"),
            "coalesced": self.metrics.value("service.coalesced"),
            "publishes": self.metrics.value("service.publishes"),
            "failures": self.metrics.value("service.failures"),
            "withdrawn": self.metrics.value("service.withdrawn"),
            "shed": self.metrics.value("service.shed"),
            "publish_races": self.metrics.value("service.publish_races"),
            "restored_publishes": self.metrics.value("service.restored_publishes"),
            "shadow_samples": self.metrics.value("shadow.samples"),
            "shadow_divergences": self.metrics.value("shadow.divergences"),
            "probation_admits": self.metrics.value("shadow.probation_admits"),
            "pending": self.pending(),
            "published": len(self.manager.published_entries()),
        }

    def close(self) -> None:
        """Deterministic shutdown: drain queued work.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self.drain()

    def __enter__(self) -> "RewriteService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------- internal
    def _journal(self, event: str, payload: dict) -> None:
        """Journal one service-channel event (no-op without forensics)."""
        if self.forensics is not None:
            self.forensics.journal("service", event, payload)

    def _admit(self, key) -> str | None:
        """Admission control: None to enqueue, else the shed reason.

        Deterministic by construction — the decision depends only on
        queue depth and per-key retry history, both of which are
        replayed identically by a seeded workload."""
        if (
            self.max_queue_depth is not None
            and self.pending() >= self.max_queue_depth
        ):
            return f"queue full (depth {self.max_queue_depth})"
        if (
            self.retry_budget is not None
            and self._retry_counts.get(key, 0) >= self.retry_budget
        ):
            return f"retry budget exhausted ({self.retry_budget})"
        return None

    def _handle_divergence(
        self, key, args: tuple, entry: int, original: int, description: str,
        *, conf: RewriteConfig | None = None, fn=None,
    ) -> None:
        """Withdraw + quarantine + record: the shadow caught a published
        variant lying.  Quarantining the key evicts the cache entry,
        which withdraws the published entry in the same step."""
        cached = self.manager.cached_result(key)
        known_reads = cached.known_reads if cached is not None else ()
        failure = RewriteFailure("shadow-divergence", description)
        self.divergences.append(DivergenceRepro(
            key=key, args=args, entry=entry, original=original,
            description=description, known_reads=tuple(known_reads),
            failure=failure,
        ))
        self._journal("divergence", {"fn": str(fn), "mismatch": description})
        if self.forensics is not None:
            self.forensics.capture_shadow_divergence(
                self.machine, conf, fn, args, entry, original, description,
                known_reads=tuple(known_reads), metrics=self.metrics,
            )
        self.manager.quarantine_key(key, failure.reason, description)
        self._requalify.add(key)
        self.metrics.inc("service.shadow_withdrawn")

    def _perform(self, work) -> None:
        key, conf, fn, args = work
        if self.watchdog_max_trace_steps is not None:
            # the step-budget watchdog: a stuck rewrite aborts with
            # `trace-limit` (retryable) and degrades down the ladder
            # instead of wedging the queue
            conf.max_trace_steps = min(
                conf.max_trace_steps, self.watchdog_max_trace_steps
            )
        try:
            result = self.manager.get(conf, fn, *args)
        finally:
            # unconditionally: a crashing manager/rewrite_fn must not
            # pin the key in _inflight forever (every later request
            # would coalesce against a rewrite that will never land)
            self._inflight.discard(key)
        if result.ok and result.entry is not None:
            if not self.manager.publish(
                    key, result.entry, probation=key in self._requalify):
                # an invalidation raced the rewrite and already evicted
                # the cache entry: there is nothing to publish on
                self.metrics.inc("service.publish_races")
            else:
                self._requalify.discard(key)
                self.metrics.inc("service.publishes")
                self.metrics.record(
                    "service.rewrite_cycles", modeled_rewrite_cycles(result)
                )
                self._journal("publish", {"fn": str(fn), "entry": result.entry})
        else:
            # graceful degradation: callers keep getting the original
            # (and re-requesting; the manager's quarantine backoff keeps
            # retry traffic bounded, the service's retry budget caps it)
            self._retry_counts[key] = self._retry_counts.get(key, 0) + 1
            self.metrics.inc("service.failures")
            self._journal("rewrite-failed", {
                "fn": str(fn), "reason": result.reason,
            })
        self.metrics.set("service.queue_depth", self.pending())
