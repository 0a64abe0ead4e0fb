"""Resilience under induced failure: fault injection, the degradation
ladder, the differential validation gate, quarantine and epoch guards.

The contract under test is the paper's Sec. III.G taken seriously: any
failure anywhere in the rewrite pipeline — including induced ones in
code paths that normally never fail — must surface as a tagged failed
``RewriteResult``, and the resilience layer must recover what is
recoverable (ladder), reject what is wrong (validation gate), and retry
what might heal (quarantine backoff)."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.asm.assembler import assemble
from repro.core import (
    BREW_KNOWN, brew_init_conf, brew_rewrite, brew_setpar, validate_variant,
)
from repro.core.dispatch import build_guard_stub, specialize_hot_param
from repro.core.manager import SpecializationManager
from repro.core.resilience import RewriteSupervisor
from repro.core.rewriter import RewriteResult
from repro.errors import FAILURE_REASONS
from repro.machine.vm import Machine
from repro.profiling.value_profile import FunctionProfile
from repro.testing import (
    EXPECTED_REASON, FAULT_KINDS, TORTURE_FAULT_KINDS, inject_fault,
    plan_faults,
)


def load_asm(machine: Machine, name: str, src: str) -> int:
    probe, _ = assemble(src, 0, extra_labels=dict(machine.image.symbols))
    addr = machine.image.add_function(name, b"\x00" * len(probe))
    code, _ = assemble(src, addr, extra_labels=dict(machine.image.symbols))
    machine.image.poke(addr, code)
    return addr


MUL2 = """
    mov rax, rdi
    imul rax, rsi
    ret
"""

# countdown loop: the counter starts from the KNOWN first parameter, so
# the trace unrolls it; the body accumulates the UNKNOWN second
# parameter, so each unrolled iteration emits real code
COUNTDOWN = """
    xor rax, rax
    mov rcx, rdi
loop:
    add rax, rsi
    sub rcx, 1
    cmp rcx, 0
    jne loop
    ret
"""


@pytest.fixture()
def machine() -> Machine:
    m = Machine()
    load_asm(m, "mul2", MUL2)
    return m


def known2_conf(passes=()):
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_KNOWN)
    conf.passes = passes
    return conf


# ===================================================== injected fault classes
@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_injected_fault_surfaces_as_tagged_result(machine, kind):
    """Every fault class becomes ok=False with its documented reason —
    no exception escapes ``brew_rewrite``."""
    conf = known2_conf(passes=("dce",) if kind == "pass" else ())
    with inject_fault(kind, nth=1) as injector:
        result = brew_rewrite(machine, conf, "mul2", 5, 7)
    assert injector.fired
    assert not result.ok
    assert result.reason == EXPECTED_REASON[kind]
    assert result.reason in FAILURE_REASONS
    assert "injected-fault" in result.message
    assert result.entry_or_original == result.original


@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_machine_still_rewrites_after_injection(machine, kind):
    """The patched seam is restored: the same rewrite succeeds right
    after the injection context exits, and the variant runs."""
    conf = known2_conf(passes=("dce",) if kind == "pass" else ())
    with inject_fault(kind, nth=1):
        brew_rewrite(machine, conf, "mul2", 5, 7)
    result = brew_rewrite(machine, known2_conf(), "mul2", 5, 7)
    assert result.ok, result.message
    assert machine.cpu.run(result.entry, 6, 7).uint_return == 42


def test_seeded_campaign_never_raises(machine):
    """A seeded sweep over all fault classes and call positions: every
    outcome is a RewriteResult; every fired fault is tagged correctly."""
    for injector in plan_faults(seed=1234, rounds=3, max_nth=5):
        conf = known2_conf(passes=("dce",) if injector.kind == "pass" else ())
        with injector:
            result = brew_rewrite(machine, conf, "mul2", 5, 7)
        assert isinstance(result, RewriteResult)
        if injector.fired:
            assert not result.ok
            assert result.reason == EXPECTED_REASON[injector.kind]
        else:  # nth beyond the calls this pipeline stage makes
            assert result.ok, result.message


def test_transient_fault_recovers_at_next_rung(machine):
    """A one-shot injected fault fails the base attempt; the ladder's
    next rung runs clean and the supervisor hands out a validated
    variant, recording the failed attempt."""
    supervisor = RewriteSupervisor(machine)
    with inject_fault("decode", nth=1) as injector:
        result = supervisor.rewrite(known2_conf(), "mul2", 5, 7)
    assert injector.fired
    assert result.ok, result.message
    assert result.ladder_rung == 1
    assert result.ladder_attempts == (("base", "decode-error"),)
    assert result.validated
    assert machine.cpu.run(result.entry, 6, 7).uint_return == 42


# =========================================================== ladder recovery
def test_ladder_recovers_buffer_full(machine):
    """Acceptance: a seeded buffer-full scenario (unrollable countdown
    loop under a tight output budget) fails the base config and recovers
    at a more conservative rung."""
    load_asm(machine, "addn", COUNTDOWN)
    conf = brew_init_conf()
    brew_setpar(conf, 1, BREW_KNOWN)
    conf.max_output_instructions = 60
    conf.variant_threshold = 100_000  # no migration rescue: unrolling explodes

    plain = brew_rewrite(machine, conf, "addn", 400, 3)
    assert not plain.ok and plain.reason == "buffer-full"

    supervisor = RewriteSupervisor(machine)
    result = supervisor.rewrite(conf, "addn", 400, 3)
    assert result.ok, result.message
    assert result.ladder_rung > 0
    assert all(reason == "buffer-full" for _, reason in result.ladder_attempts)
    assert result.validated
    assert machine.cpu.run(result.entry, 400, 3).uint_return == 1200
    stats = supervisor.stats()
    assert stats["ladder_recoveries"] == 1
    assert stats["fallbacks"] == 0
    assert stats["attempts"] == len(result.ladder_attempts) + 1


def test_ladder_exhaustion_reports_last_failure(machine):
    """A rewrite no rung can save (deadline 0 on every attempt) walks the
    whole ladder and reports the terminal failure with full history."""
    supervisor = RewriteSupervisor(machine, deadline_seconds=0.0)
    result = supervisor.rewrite(known2_conf(), "mul2", 5, 7)
    assert not result.ok
    assert result.reason == "deadline-exceeded"
    assert len(result.ladder_attempts) == len(supervisor.ladder) + 1
    assert supervisor.stats()["fallbacks"] == 1
    assert supervisor.fallback_rate == 1.0


def test_injected_clock_expires_deadline_deterministically(machine):
    """Satellite: `RewriteSupervisor(clock=...)` threads a fake clock
    through `rewrite` into the tracer, so deadline expiry is a
    deterministic function of traced instructions, not a wall-clock
    race.  Two identical runs walk identical ladders."""
    load_asm(machine, "addn", COUNTDOWN)

    def run_once():
        ticks = {"n": 0}

        def clock() -> float:
            ticks["n"] += 1
            return float(ticks["n"])  # one fake second per consultation

        conf = brew_init_conf()
        brew_setpar(conf, 1, BREW_KNOWN)
        supervisor = RewriteSupervisor(machine, deadline_seconds=0.5, clock=clock)
        result = supervisor.rewrite(conf, "addn", 400, 3)
        return result, ticks["n"]

    first, ticks_a = run_once()
    second, ticks_b = run_once()
    assert not first.ok and first.reason == "deadline-exceeded"
    assert first.ladder_attempts == second.ladder_attempts
    assert ticks_a == ticks_b > 0
    # a generous fake deadline lets the same rewrite succeed: the clock
    # is genuinely what decides
    conf = brew_init_conf()
    brew_setpar(conf, 1, BREW_KNOWN)
    relaxed = RewriteSupervisor(
        machine, deadline_seconds=1e9, clock=lambda: 0.0
    )
    assert relaxed.rewrite(conf, "addn", 400, 3).ok


def test_non_retryable_reason_stops_the_ladder(machine):
    """bad-argument cannot improve at a lower rung: one attempt only."""
    supervisor = RewriteSupervisor(machine)
    result = supervisor.rewrite(known2_conf(), "mul2", "not-an-int", 7)
    assert not result.ok
    assert result.reason == "bad-argument"
    assert len(result.ladder_attempts) == 1
    assert supervisor.stats()["attempts"] == 1


# ========================================================== validation gate
def test_validation_gate_rejects_corrupted_variant(machine):
    """Acceptance: a deliberately-corrupted variant (patched to return a
    constant) is caught by the differential gate."""
    conf = known2_conf()
    result = brew_rewrite(machine, conf, "mul2", 5, 7)
    assert result.ok
    assert validate_variant(machine, conf, result, (5, 7)) is None

    bad, _ = assemble("mov rax, 999\nret", result.entry)
    machine.image.poke(result.entry, bad)
    mismatch = validate_variant(machine, conf, result, (5, 7))
    assert mismatch is not None and "diverged" in mismatch


def test_supervisor_discards_corrupted_variants(machine, monkeypatch):
    """End to end: when every emitted variant is corrupted, the
    supervisor walks the ladder discarding each one and reports a
    terminal ``validation-failed`` — the caller keeps the original."""
    import repro.core.resilience as resilience_mod

    real_rewrite = resilience_mod.rewrite

    def corrupting_rewrite(m, conf, fn, *args):
        result = real_rewrite(m, conf, fn, *args)
        if result.ok:
            bad, _ = assemble("mov rax, 999\nret", result.entry)
            m.image.poke(result.entry, bad)
        return result

    monkeypatch.setattr(resilience_mod, "rewrite", corrupting_rewrite)
    supervisor = RewriteSupervisor(machine)
    result = supervisor.rewrite(known2_conf(), "mul2", 5, 7)
    assert not result.ok
    assert result.reason == "validation-failed"
    assert result.entry_or_original == result.original
    stats = supervisor.stats()
    assert stats["validation_failures"] == len(supervisor.ladder) + 1
    assert stats["fallbacks"] == 1


def test_validation_perturbs_only_unknown_params(machine):
    """KNOWN parameters keep their traced value during validation — a
    variant specialized on them must not be compared on other values."""
    # rsi is KNOWN=7 and baked in; perturbing it would falsely reject
    conf = known2_conf()
    supervisor = RewriteSupervisor(machine, validation_vectors=8, validation_seed=3)
    result = supervisor.rewrite(conf, "mul2", 5, 7)
    assert result.ok and result.validated


# ===================================================== quarantine and backoff
def test_quarantined_failure_served_then_retried_after_backoff(machine):
    """Acceptance: a cached failure is served while its backoff window is
    open and retried once the (injected) clock passes ``retry_at``."""
    now = [0.0]
    calls = Counter()

    def flaky_rewrite(conf, fn, *args):
        calls["rewrites"] += 1
        if calls["rewrites"] == 1:  # one-shot fault on the first attempt
            with inject_fault("decode", nth=1):
                return brew_rewrite(machine, conf, fn, *args)
        return brew_rewrite(machine, conf, fn, *args)

    manager = SpecializationManager(
        machine, rewrite_fn=flaky_rewrite, backoff_seconds=0.5,
        clock=lambda: now[0],
    )
    conf = known2_conf()
    first = manager.get(conf, "mul2", 5, 7)
    assert not first.ok and first.reason == "decode-error"

    # inside the backoff window: the failure is served from quarantine
    now[0] = 0.4
    again = manager.get(conf, "mul2", 5, 7)
    assert again is first
    assert calls["rewrites"] == 1
    stats = manager.stats()
    assert stats["quarantine_hits"] == 1 and stats["quarantined"] == 1

    # window expired: retried, heals, and the success replaces the entry
    now[0] = 0.6
    healed = manager.get(conf, "mul2", 5, 7)
    assert healed.ok
    assert calls["rewrites"] == 2
    stats = manager.stats()
    assert stats["quarantine_retries"] == 1 and stats["quarantined"] == 0
    assert machine.cpu.run(healed.entry, 6, 7).uint_return == 42


def test_repeated_failures_back_off_exponentially(machine):
    """Each consecutive failure doubles the quarantine window."""
    now = [0.0]
    manager = SpecializationManager(
        machine, backoff_seconds=1.0, clock=lambda: now[0],
    )
    conf = brew_init_conf()
    # a permanently-failing rewrite: boolean argument -> bad-argument
    manager.get(conf, "mul2", True, 7)
    entry = next(iter(manager._cache.values()))
    assert entry.fail_count == 1 and entry.retry_at == pytest.approx(1.0)

    now[0] = 1.5  # past the first window: retry fails again, window doubles
    manager.get(conf, "mul2", True, 7)
    entry = next(iter(manager._cache.values()))
    assert entry.fail_count == 2 and entry.retry_at == pytest.approx(1.5 + 2.0)


def test_unhashable_example_args_fail_gracefully(machine):
    """A list/dict example argument must not raise a raw TypeError out
    of the cache key — it becomes the rewriter's bad-argument result."""
    manager = SpecializationManager(machine)
    result = manager.get(brew_init_conf(), "mul2", [1, 2], {"a": 3})
    assert not result.ok and result.reason == "bad-argument"
    # and the failure is cached under the fingerprinted key
    again = manager.get(brew_init_conf(), "mul2", [1, 2], {"a": 3})
    assert again is result


# ================================================== epoch guards in dispatch
def test_epoch_guard_falls_back_after_invalidation(machine):
    """A guard stub carrying the manager's epoch dispatches to the
    variant while fresh and to the original once known memory was
    invalidated — even if the stale variant is garbage by then."""
    manager = SpecializationManager(machine)
    conf = known2_conf()
    result = manager.get(conf, "mul2", 5, 7)
    assert result.ok
    stub = build_guard_stub(
        machine, "mul2", 2, 7, result.entry,
        epoch_cell=manager.epoch_cell, epoch=manager.epoch,
    )
    assert machine.cpu.run(stub, 6, 7).uint_return == 42   # via variant
    assert machine.cpu.run(stub, 6, 8).uint_return == 48   # via original

    # invalidate: epoch bumps; then corrupt the stale variant to prove
    # the stub no longer reaches it
    manager.invalidate_memory(0, 2**48)
    bad, _ = assemble("mov rax, 999\nret", result.entry)
    machine.image.poke(result.entry, bad)
    assert machine.cpu.run(stub, 6, 7).uint_return == 42   # via original


def test_specialize_hot_param_pads_to_profile_width(machine):
    """Satellite fix: example args are padded to cover both the guarded
    slot and every profiled parameter, in all branches."""
    profile = FunctionProfile(
        calls=10, values={1: Counter({7: 10}), 3: Counter({2: 10})}
    )

    class Recorder:
        """Captures the argument vector the rewrite is invoked with."""

        def __init__(self):
            self.args = None

        def rewrite(self, conf, fn, *args):
            self.args = args
            return RewriteResult(ok=False, original=0, reason="internal")

    # short example_args used to skip padding to the profile width
    recorder = Recorder()
    specialize_hot_param(
        machine, "mul2", profile, 1, example_args=(9,), supervisor=recorder
    )
    assert recorder.args == (7, 0, 0)

    recorder = Recorder()
    specialize_hot_param(machine, "mul2", profile, 1, supervisor=recorder)
    assert recorder.args == (7, 0, 0)


# ================================================ adversarial-guest classes
# the four torture fault kinds (PR 6): each patches a tracer seam that a
# hostile guest exercises organically — undecodable bytes, stores into
# executable segments, unknowable jump targets, fetches off the image

# a direct jump, so the _do_jmp seam is reached
JUMPY = """
    mov rax, rdi
    imul rax, rsi
    jmp done
done:
    ret
"""

# an absolute store (into the data segment), so the tracer's
# store-hits-code check is reached; rdi stays unknown under known2_conf
STOREY = """
    mov [4194304], rdi
    mov rax, rdi
    imul rax, rsi
    ret
"""

#: kind -> (function name, source) exercising that seam.
TORTURE_KIND_GUESTS = {
    "undecodable": ("mul2", None),
    "self-modify-mid-trace": ("storey", STOREY),
    "indirect-jump-unknown": ("jumpy", JUMPY),
    "segment-escape": ("mul2", None),
}


@pytest.mark.parametrize("kind", TORTURE_FAULT_KINDS)
def test_adversarial_fault_surfaces_as_tagged_result(machine, kind):
    """Every adversarial-guest fault class becomes ok=False with its
    documented reason — no exception escapes ``brew_rewrite``."""
    name, src = TORTURE_KIND_GUESTS[kind]
    if src is not None:
        load_asm(machine, name, src)
    with inject_fault(kind, nth=1) as injector:
        result = brew_rewrite(machine, known2_conf(), name, 5, 7)
    assert injector.fired
    assert not result.ok
    assert result.reason == EXPECTED_REASON[kind]
    assert result.reason in FAILURE_REASONS
    assert result.entry_or_original == result.original


@pytest.mark.parametrize("kind", TORTURE_FAULT_KINDS)
def test_adversarial_seam_is_restored_after_injection(machine, kind):
    """The patched seam is gone once the context exits: the identical
    rewrite succeeds and the variant computes the right product."""
    name, src = TORTURE_KIND_GUESTS[kind]
    if src is not None:
        load_asm(machine, name, src)
    with inject_fault(kind, nth=1):
        brew_rewrite(machine, known2_conf(), name, 5, 7)
    result = brew_rewrite(machine, known2_conf(), name, 5, 7)
    assert result.ok, result.message
    assert machine.cpu.run(result.entry, 6, 7).uint_return == 42
