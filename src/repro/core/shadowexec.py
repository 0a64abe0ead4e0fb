"""Online shadow-validation sampling (continuous assurance, part 1).

PR-1's differential validation gate checks a variant *once*, before
publication, against the tracing arguments plus a handful of seeded
perturbations.  The rewriting literature says that is not enough: even
mature rewriters silently break functionality at low-but-nonzero rates
(Schulte et al.), and a miscompile that slips past a finite test-vector
gate will happily serve wrong answers forever.  This module keeps
published variants *supervised*:

* :class:`ShadowSampler` deterministically selects a seeded fraction of
  live dispatches per key (``1/interval`` of the calls, at a per-key
  phase derived from the seed, so two runs of the same workload sample
  the same calls — bit-for-bit reproducible soaks depend on this);

* a sampled call runs the **original first** under a write journal
  (:meth:`repro.machine.memory.Memory.open_journal`: the first write to
  each segment copies that segment's pre-image), rolls back the
  segments it wrote, then runs the published variant for real;
  return registers and every non-stack segment either run wrote are
  compared exactly as in :func:`repro.core.resilience.validate_variant`.
  A sample thus copies what its runs write (in practice the stack), not
  every writable segment;

* on a match the variant's effects stay in place and the caller gets
  the variant's result — the sample cost is one extra execution;

* on a **divergence** the variant's effects are rolled back, the caller
  is re-served by the original (a sampled call never delivers a wrong
  result), and the caller of :meth:`ShadowSampler.run_shadowed` gets a
  :class:`DivergenceRepro` — a minimized reproduction (arguments plus
  the variant's recorded world signature) filed under the
  ``shadow-divergence`` failure reason so the service can withdraw and
  quarantine the variant atomically.

The sampler is dispatch-policy-free on purpose: *who* gets sampled
(every probation call after a snapshot restore, one in N steady-state
calls) is the service's decision; this module only decides "was this
call index sampled for this key" and "did the two executions agree".
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.errors import ReproError, RewriteFailure
from repro.core.resilience import (
    _Observation,
    _mismatch,
    _observe,
    _writable_state,
)
from repro.obs import Metrics

#: Default steady-state sampling interval: one call in this many (per
#: key) is shadow-executed.  Every injected divergence is therefore
#: caught within ``interval`` calls of the same key — the "sampling
#: window" the EXT-5 soak bounds its detection latency by.
DEFAULT_SHADOW_INTERVAL = 8

#: Step budget for each shadowed execution (original and variant
#: alike) when the caller of :meth:`ShadowSampler.run_shadowed` names
#: none.
DEFAULT_SHADOW_MAX_STEPS = 2_000_000


@dataclass(frozen=True)
class DivergenceRepro:
    """A minimized reproduction of one observed shadow divergence.

    Everything needed to replay the escape offline: the dispatch key,
    the live arguments it fired on, the variant's world signature (the
    known-memory cells its trace consumed, ``(addr, value)`` pairs) and
    what diverged.  ``failure`` carries the taxonomy reason
    (``shadow-divergence``) so repros flow through the same reporting
    channels as rewrite-time failures.
    """

    key: tuple
    args: tuple
    entry: int
    original: int
    description: str
    known_reads: tuple = ()
    failure: RewriteFailure = field(
        default_factory=lambda: RewriteFailure("shadow-divergence")
    )


@dataclass
class ShadowOutcome:
    """What one shadowed dispatch produced.

    ``run`` is the execution the caller must see: the variant's run when
    the shadow agreed, the original's re-run after a rollback when it
    diverged.  ``divergence`` is ``None`` on agreement, else the
    human-readable mismatch.
    """

    run: object
    divergence: str | None = None
    #: True when the original itself faulted on these arguments, making
    #: the comparison unjudgeable (the variant's run is delivered, as
    #: :func:`validate_variant` does for unjudgeable vectors).
    unjudged: bool = False


class ShadowSampler:
    """Deterministic seeded sampling of live dispatches (module docstring).

    One sampler serves one machine.  ``interval`` is the steady-state
    sampling period per key (1 = shadow every call); ``seed`` fixes the
    per-key phase so reruns sample identically.  All counters are
    charged to ``metrics`` under the ``shadow.*`` prefix.
    """

    def __init__(
        self,
        machine,
        *,
        interval: int = DEFAULT_SHADOW_INTERVAL,
        seed: int = 0,
        metrics: Metrics | None = None,
        recorder=None,
    ) -> None:
        if interval < 1:
            raise ValueError("sampling interval is 1-based")
        self.machine = machine
        self.interval = interval
        self.seed = seed
        self.metrics = metrics if metrics is not None else Metrics()
        #: Optional :class:`~repro.obs.flightrec.FlightRecorder`: sampled
        #: executions and divergences are journaled on the ``machine``
        #: channel (matches are not — steady state stays cheap).
        self.recorder = recorder
        self._counts: dict[tuple, int] = {}
        self._phases: dict[tuple, int] = {}

    # ------------------------------------------------------------ sampling
    def _phase(self, key: tuple) -> int:
        """The per-key call index (mod interval) that gets sampled —
        a stable digest, not ``hash()``, so runs agree across processes
        (str hashing is salted per interpreter)."""
        phase = self._phases.get(key)
        if phase is None:
            digest = hashlib.sha1(f"{self.seed}:{key!r}".encode()).digest()
            phase = int.from_bytes(digest[:4], "little") % self.interval
            self._phases[key] = phase
        return phase

    def decide(self, key: tuple) -> bool:
        """Count one dispatch of ``key``; True when this call is sampled."""
        count = self._counts.get(key, 0)
        self._counts[key] = count + 1
        return count % self.interval == self._phase(key)

    # ----------------------------------------------------------- execution
    def run_shadowed(
        self, entry: int, original: int, args: tuple, max_steps: int | None = None
    ) -> ShadowOutcome:
        """Execute ``entry`` under shadow supervision of ``original``.

        Protocol: open a write journal → run the original → roll back
        → run the variant *for real* → compare → close the journal.  On
        agreement the variant's effects are kept; on divergence they are
        rolled back and the original is re-run (journal closed) so the
        caller observes exactly what an unspecialized program would
        have.  The journal is closed even when an exception escapes."""
        if max_steps is None:
            max_steps = DEFAULT_SHADOW_MAX_STEPS
        machine = self.machine
        memory = machine.image.memory
        self.metrics.inc("shadow.samples")
        memory.open_journal()
        try:
            want = _observe(machine, original, args, max_steps)
            memory.rollback()
            if want.error is None:
                try:
                    run = machine.cpu.run(entry, *args, max_steps=max_steps)
                except ReproError as exc:
                    divergence = (
                        f"variant faulted on {args!r}: "
                        f"{type(exc).__name__}: {exc}"
                    )
                else:
                    divergence = self._compare(want, run, args)
                    if divergence is None:
                        self.metrics.inc("shadow.matches")
                        return ShadowOutcome(run=run)
                # roll the variant's effects back
                memory.rollback()
        finally:
            memory.close_journal()
        if want.error is not None:
            # the original faults on these live args: nothing to judge
            # the variant against — deliver it unsupervised this time
            self.metrics.inc("shadow.unjudged")
            self._journal("shadow-unjudged", {"entry": entry, "error": want.error})
            return ShadowOutcome(
                run=machine.cpu.run(entry, *args, max_steps=max_steps),
                unjudged=True,
            )
        # serve the caller the truth
        self.metrics.inc("shadow.divergences")
        self._journal("shadow-divergence", {
            "entry": entry, "original": original, "mismatch": divergence,
        })
        return ShadowOutcome(
            run=machine.cpu.run(original, *args, max_steps=max_steps),
            divergence=divergence,
        )

    def _journal(self, event: str, payload: dict) -> None:
        """Record one anomaly on the ``machine`` channel (no-op without
        a recorder; matches are never journaled, only anomalies)."""
        if self.recorder is not None:
            self.recorder.record("machine", event, payload)

    def _compare(self, want: _Observation, run, args: tuple) -> str | None:
        """Mismatch description, or None when the variant's live ``run``
        (its effects still in memory) agreed with the original's."""
        got = _Observation(uint_return=run.uint_return,
                           float_return=run.float_return,
                           memory=_writable_state(self.machine))
        return _mismatch(self.machine, want, got, args)

    def stats(self) -> dict[str, int]:
        """Shadow-sampling health counters."""
        return {
            "samples": self.metrics.value("shadow.samples"),
            "matches": self.metrics.value("shadow.matches"),
            "divergences": self.metrics.value("shadow.divergences"),
            "unjudged": self.metrics.value("shadow.unjudged"),
        }
