"""Resilient specialization: degradation ladder + differential validation.

The paper's Sec. III.G makes graceful failure a load-bearing property —
``brew_rewrite`` returns a failed result, never crashes, and the caller
keeps the original entry point.  This module builds on that floor in two
directions the binary-rewriting literature says separate usable rewriters
from research toys:

* :class:`RewriteSupervisor` wraps ``brew_rewrite`` with a per-reason
  **degradation ladder**: when an attempt fails for a *retryable* reason
  (resource budgets, unrolling explosions, inlining trouble), it retries
  with progressively more conservative configurations — disable inlining,
  then ``force_unknown_results``, then ``conditionals_unknown``, then
  ``variant_threshold=1`` — each attempt bounded by a wall-clock deadline
  and trace/output budgets.  The rung that finally succeeded is recorded
  in ``RewriteResult.ladder_rung``; failed attempts in
  ``RewriteResult.ladder_attempts``.

* :func:`validate_variant` is a **differential validation gate**: before
  a variant is handed out, the specialized entry and the original are
  both executed on the tracing arguments plus N seeded-perturbed argument
  vectors under a write journal that rolls each run back; return values
  and all memory writes are compared, and a diverging variant is
  discarded with a ``validation-failed`` reason.  This turns the
  paper's correctness assumption ("the variant is a drop-in
  replacement") into a checked invariant.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.errors import ReproError, RewriteFailure
from repro.core.config import Knownness, RewriteConfig
from repro.core.rewriter import RewriteResult, rewrite
from repro.obs import Metrics

#: Failure reasons for which a more conservative ladder rung cannot help:
#: the arguments or the configuration itself are wrong, and retrying with
#: less knowledge would fail identically (or succeed misleadingly).
NON_RETRYABLE_REASONS = frozenset({"bad-argument", "bad-guard", "bad-pass"})

#: Default number of seeded-perturbed argument vectors per validation.
DEFAULT_VALIDATION_VECTORS = 3

#: Step budget for each validation execution (original and variant alike);
#: a perturbed vector that makes the *original* exceed it is skipped, a
#: variant that exceeds it while the original did not is a divergence.
DEFAULT_VALIDATION_MAX_STEPS = 2_000_000


@dataclass(frozen=True)
class LadderRung:
    """One rung of the degradation ladder: a name plus a config mutation.

    ``apply`` receives a private copy of the previous rung's config, so
    rungs compose cumulatively — by the bottom rung the rewriter inlines
    nothing, folds no data-dependent results, keeps every conditional and
    allows a single variant per block address.
    """

    name: str
    apply: Callable[[RewriteConfig], None]


def _rung_no_inline(conf: RewriteConfig) -> None:
    """Keep every call: no inlining anywhere (bounds trace depth)."""
    conf.inline_default = False
    for cfg in conf.functions.values():
        cfg.inline = False


def _rung_force_unknown(conf: RewriteConfig) -> None:
    """Force all operation results unknown (the paper's brute-force
    anti-unrolling knob, Sec. V.C) for the entry function."""
    conf.set_function(None, force_unknown_results=True)


def _rung_conditionals_unknown(conf: RewriteConfig) -> None:
    """Treat every conditional as unknown (no trace-through unrolling)."""
    conf.set_function(None, conditionals_unknown=True)


def _rung_variant_threshold_one(conf: RewriteConfig) -> None:
    """Collapse to one variant per block address: migration immediately
    generalizes, bounding output size at the cost of specialization."""
    conf.variant_threshold = 1


#: The default ladder, most aggressive first (rung 0 is always the
#: caller's own configuration and is not listed here).
DEFAULT_LADDER: tuple[LadderRung, ...] = (
    LadderRung("no-inline", _rung_no_inline),
    LadderRung("force-unknown", _rung_force_unknown),
    LadderRung("conditionals-unknown", _rung_conditionals_unknown),
    LadderRung("variant-threshold-1", _rung_variant_threshold_one),
)


# ====================================================================== gate
def _writable_state(machine) -> dict[str, bytes]:
    """Contents of every journaled segment (the "memory writes" half of
    the differential comparison — identical inputs must leave identical
    memory behind).  A segment no run has written since the journal
    opened still equals its pre-image, so it is left out.  The stack is
    excluded: dead scratch left below the return-time rsp differs
    legitimately between the original and a variant with a different
    spill pattern and is not a program-visible output."""
    memory = machine.image.memory
    return {
        seg.name: bytes(seg.data)
        for seg in memory.segments
        if seg.name in memory.journal and seg.name != "stack"
    }


def _diverged_segments(machine, got: dict[str, bytes],
                       want: dict[str, bytes]) -> list[str]:
    """Segments whose contents differ between two :func:`_writable_state`
    captures of one journal.  ``got`` is the later capture, so it covers
    every segment either run wrote; one that ``want`` lacks was still
    at its pre-image when ``want`` was taken."""
    pre = machine.image.memory.journal
    return [name for name, data in got.items()
            if data != want.get(name, pre[name])]


def _perturbed_vectors(
    conf: RewriteConfig, args: tuple, vectors: int, seed: int
) -> list[tuple]:
    """The tracing args plus ``vectors`` seeded perturbations.

    Only parameters declared UNKNOWN may vary — a KNOWN or PTR_TO_KNOWN
    parameter's traced value is baked into the variant, so substituting
    a different value would *legitimately* change the answer.  Unknown
    integers get small signed deltas (covering the common index/pointer
    cases without leaving mapped segments for typical layouts); unknown
    floats get scaled nudges.
    """
    rng = random.Random(seed)
    entry_params = conf.function(None).params
    out = [tuple(args)]
    for _ in range(vectors):
        vec = []
        for position, arg in enumerate(args, start=1):
            knownness = entry_params.get(position, Knownness.UNKNOWN)
            if knownness is not Knownness.UNKNOWN:
                vec.append(arg)
            elif isinstance(arg, float):
                vec.append(arg + rng.choice((-1.0, 1.0)) * rng.random() * 4.0)
            elif isinstance(arg, int):
                vec.append(arg + rng.choice((-64, -8, -1, 1, 8, 64)))
            else:  # non-numeric args never reach a successful rewrite
                vec.append(arg)
        out.append(tuple(vec))
    return out


@dataclass
class _Observation:
    """What one execution did: returns + memory afterimage (or the error)."""

    error: str | None = None
    uint_return: int = 0
    float_return: float = 0.0
    memory: dict[str, bytes] = field(default_factory=dict)


def _observe(machine, entry: int, args: tuple, max_steps: int) -> _Observation:
    """Run ``entry`` on ``args`` and capture its observable behaviour.

    The caller opens the write journal (``memory.open_journal()``) and
    rolls back around this."""
    try:
        run = machine.cpu.run(entry, *args, max_steps=max_steps)
    except ReproError as exc:  # CpuError, MemoryError_, DecodeError, ...
        return _Observation(error=f"{type(exc).__name__}: {exc}")
    return _Observation(
        uint_return=run.uint_return,
        float_return=run.float_return,
        memory=_writable_state(machine),
    )


def _mismatch(machine, want: _Observation, got: _Observation,
              args: tuple) -> str | None:
    """The differential comparison the validation gate and shadow
    sampling share: the first difference between the original's run
    (``want``) and the variant's (``got``) on ``args`` — int return,
    float return (NaN equals NaN), then the contents of every segment
    either run wrote — or ``None`` when they agree."""
    if got.uint_return != want.uint_return:
        return (
            f"int return diverged on {args!r}: "
            f"0x{got.uint_return:x} != 0x{want.uint_return:x}"
        )
    if got.float_return != want.float_return and not (
        got.float_return != got.float_return
        and want.float_return != want.float_return
    ):  # NaN == NaN for comparison purposes
        return (
            f"float return diverged on {args!r}: "
            f"{got.float_return!r} != {want.float_return!r}"
        )
    names = _diverged_segments(machine, got.memory, want.memory)
    if names:
        return f"memory writes diverged on {args!r} in {names}"
    return None


def validate_variant(
    machine,
    conf: RewriteConfig,
    result: RewriteResult,
    args: tuple,
    *,
    vectors: int = DEFAULT_VALIDATION_VECTORS,
    seed: int = 0,
    max_steps: int = DEFAULT_VALIDATION_MAX_STEPS,
) -> str | None:
    """Differentially validate ``result.entry`` against the original.

    Executes both entry points on the tracing args and ``vectors``
    seeded perturbations of the UNKNOWN parameters under one write
    journal: each run is rolled back by writing back the pre-images of
    the segments written so far, so a vector copies only what the runs
    write, not every writable segment.  Compares return registers and
    the contents of every segment either run wrote.  Returns ``None``
    when no divergence was observed or a human-readable mismatch
    description otherwise.

    A vector on which the *original* itself faults or exceeds the step
    budget is skipped (nothing to compare against); a variant that faults
    where the original did not is a divergence.
    """
    assert result.ok and result.entry is not None
    memory = machine.image.memory
    memory.open_journal()
    try:
        for vec in _perturbed_vectors(conf, tuple(args), vectors, seed):
            want = _observe(machine, result.original, vec, max_steps)
            memory.rollback()
            if want.error is not None:
                continue  # original faults on this vector: unjudgeable
            got = _observe(machine, result.entry, vec, max_steps)
            memory.rollback()
            if got.error is not None:
                return f"variant faulted on {vec!r}: {got.error}"
            mismatch = _mismatch(machine, want, got, vec)
            if mismatch is not None:
                return mismatch
    finally:
        memory.rollback()
        memory.close_journal()
    return None


# ================================================================ supervisor
#: The keys of :meth:`RewriteSupervisor.stats`, each read from the
#: ``supervisor.<key>`` counter.
_STATS_KEYS = (
    "rewrites",             # supervised rewrite() calls
    "attempts",             # individual brew_rewrite attempts
    "first_try",            # succeeded at rung 0
    "ladder_recoveries",    # succeeded at rung > 0
    "validations",          # gate executions
    "validation_failures",  # variants the gate discarded
    "fallbacks",            # terminal failures (caller keeps original)
)


class RewriteSupervisor:
    """Wraps ``brew_rewrite`` with the degradation ladder and the
    differential validation gate (module docstring has the full story).

    One supervisor serves one machine and charges health counters to
    ``metrics`` across calls — ``stats()`` reports attempts, ladder
    recoveries, validation rejections and terminal fallbacks, which the
    experiment harness surfaces as fallback rates.
    """

    def __init__(
        self,
        machine,
        *,
        validation_vectors: int = DEFAULT_VALIDATION_VECTORS,
        validation_seed: int = 0,
        validation_max_steps: int = DEFAULT_VALIDATION_MAX_STEPS,
        deadline_seconds: float | None = None,
        max_trace_steps: int | None = None,
        max_output_instructions: int | None = None,
        clock: Callable[[], float] = time.monotonic,
        metrics: Metrics | None = None,
        forensics=None,
    ) -> None:
        self.machine = machine
        #: Optional :class:`~repro.core.forensics.ForensicsHub`.  When
        #: set, every ladder attempt is journaled on the ``rewrite``
        #: channel and a terminal fallback captures a full crash bundle.
        self.forensics = forensics
        #: Observability registry: holds the ``supervisor.*`` counters
        #: ``stats()`` reads, and each successful rewrite records
        #: per-variant block counts and trace sizes.
        self.metrics = metrics if metrics is not None else Metrics()
        #: The rungs tried after the base attempt, always
        #: :data:`DEFAULT_LADDER`.
        self.ladder = DEFAULT_LADDER
        self.validation_vectors = validation_vectors
        self.validation_seed = validation_seed
        self.validation_max_steps = validation_max_steps
        self.deadline_seconds = deadline_seconds
        self.max_trace_steps = max_trace_steps
        self.max_output_instructions = max_output_instructions
        #: Clock the per-attempt deadlines are measured against —
        #: injectable, like :class:`~repro.core.manager.SpecializationManager`'s
        #: quarantine clock, so deadline-expiry tests are deterministic.
        self.clock = clock

    # ------------------------------------------------------------- internal
    def _charge(self, key: str) -> None:
        self.metrics.inc(f"supervisor.{key}")

    def _budgeted(self, conf: RewriteConfig) -> RewriteConfig:
        """A private copy of ``conf`` with the supervisor's per-attempt
        budgets applied (tighter of the two wins for the hard caps)."""
        out = conf.copy()
        if self.deadline_seconds is not None:
            out.deadline_seconds = (
                self.deadline_seconds
                if conf.deadline_seconds is None
                else min(conf.deadline_seconds, self.deadline_seconds)
            )
        if self.max_trace_steps is not None:
            out.max_trace_steps = min(out.max_trace_steps, self.max_trace_steps)
        if self.max_output_instructions is not None:
            out.max_output_instructions = min(
                out.max_output_instructions, self.max_output_instructions
            )
        return out

    def _gate(self, conf: RewriteConfig, result: RewriteResult, args: tuple) -> str | None:
        self._charge("validations")
        try:
            mismatch = validate_variant(
                self.machine, conf, result, args,
                vectors=self.validation_vectors,
                seed=self.validation_seed,
                max_steps=self.validation_max_steps,
            )
        except ReproError as exc:  # the gate itself must not crash callers
            mismatch = f"validation gate error: {type(exc).__name__}: {exc}"
        if mismatch is not None:
            self._charge("validation_failures")
        return mismatch

    # ------------------------------------------------------------------ api
    def rewrite(self, conf: RewriteConfig, fn, *args) -> RewriteResult:
        """A supervised ``brew_rewrite``: degrade on retryable failures,
        validate successes, and always return a :class:`RewriteResult`
        (``entry_or_original`` keeps the graceful-fallback idiom)."""
        self._charge("rewrites")
        attempts: list[tuple[str, str]] = []
        base = self._budgeted(conf)
        rung_conf = base
        last: RewriteResult | None = None
        for rung_index in range(len(self.ladder) + 1):
            if rung_index > 0:
                rung = self.ladder[rung_index - 1]
                rung_conf = rung_conf.copy()
                rung.apply(rung_conf)
            rung_name = "base" if rung_index == 0 else self.ladder[rung_index - 1].name
            self._charge("attempts")
            # pass the clock only when one was injected: rewrite() defaults
            # to the real monotonic clock, and test doubles that substitute
            # rewrite() need not grow a clock parameter
            clock_kw = {} if self.clock is time.monotonic else {"clock": self.clock}
            result = rewrite(self.machine, rung_conf, fn, *args, **clock_kw)
            if result.ok:
                mismatch = self._gate(rung_conf, result, tuple(args))
                if mismatch is None:
                    if rung_index == 0:
                        self._charge("first_try")
                    else:
                        self._charge("ladder_recoveries")
                    # per-variant shape: how many blocks this body carries
                    # (the variant-count histogram the metrics layer
                    # exports) and how long the rewrite took
                    self.metrics.record(
                        "supervisor.variant_blocks", result.stats.blocks
                    )
                    self.metrics.record(
                        "supervisor.rewrite_micros",
                        result.rewrite_seconds * 1e6,
                    )
                    return replace(
                        result,
                        ladder_rung=rung_index,
                        ladder_attempts=tuple(attempts),
                        validated=True,
                    )
                # a diverging variant is discarded and — since divergence
                # often comes from over-aggressive specialization — the
                # ladder keeps degrading
                failure = RewriteFailure("validation-failed", mismatch)
                result = RewriteResult(
                    ok=False,
                    original=result.original,
                    reason=failure.reason,
                    message=str(failure),
                    rewrite_seconds=result.rewrite_seconds,
                )
            last = result
            attempts.append((rung_name, result.reason))
            if self.forensics is not None:
                self.forensics.journal("rewrite", "ladder-attempt", {
                    "rung": rung_name, "reason": result.reason,
                })
            if result.reason in NON_RETRYABLE_REASONS:
                break
        self._charge("fallbacks")
        assert last is not None
        terminal = replace(
            last, ladder_rung=len(attempts) - 1, ladder_attempts=tuple(attempts)
        )
        if self.forensics is not None:
            self.forensics.capture_rewrite_failure(
                self.machine, conf, fn, tuple(args), terminal,
                settings=self.replay_settings(), metrics=self.metrics,
            )
        return terminal

    def replay_settings(self) -> dict:
        """The supervisor knobs a replay must reproduce, as a JSON-able
        dict.  ``deadline_seconds`` is deliberately absent — wall-clock
        budgets cannot replay deterministically, so replay supervisors
        run unbounded in host time and bounded in trace/output budgets."""
        return {
            "validation_vectors": self.validation_vectors,
            "validation_seed": self.validation_seed,
            "validation_max_steps": self.validation_max_steps,
            "max_trace_steps": self.max_trace_steps,
            "max_output_instructions": self.max_output_instructions,
        }

    def stats(self) -> dict[str, int]:
        """The health counters, read from the ``supervisor.*`` counters
        of :attr:`metrics` (a registry shared by two supervisors reports
        their sums)."""
        return {key: self.metrics.value(f"supervisor.{key}")
                for key in _STATS_KEYS}

    @property
    def fallback_rate(self) -> float:
        """Fraction of supervised rewrites that terminally failed."""
        value = self.metrics.value
        total = value("supervisor.rewrites")
        return value("supervisor.fallbacks") / total if total else 0.0


def supervised_rewrite(machine, conf: RewriteConfig, fn, *args, **options) -> RewriteResult:
    """One-shot convenience: build a :class:`RewriteSupervisor` with
    ``options`` and run a single supervised rewrite."""
    return RewriteSupervisor(machine, **options).rewrite(conf, fn, *args)
