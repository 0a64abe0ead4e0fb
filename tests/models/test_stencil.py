"""Stencil library tests: correctness of every variant against a pure
Python oracle, the Section V relationships between their costs, and
respecialization under the trace JIT (Sec. VI) matching tier 0."""

from __future__ import annotations

import math

import pytest

from repro.core import BREW_KNOWN, brew_init_conf, brew_rewrite, brew_setpar
from repro.models.stencil import StencilLab, StencilSpec

XS = YS = 16
ITERS = 2


@pytest.fixture(scope="module")
def lab() -> StencilLab:
    return StencilLab(xs=XS, ys=YS)


def expected_after(lab: StencilLab, iters: int) -> list[float]:
    lab.reset_matrices()
    grid = lab.read_matrix(lab.m1)
    for _ in range(iters):
        grid = lab.reference_sweep(grid)
    return grid


def assert_matches_oracle(lab: StencilLab, iters: int):
    got = lab.read_matrix(lab.final_matrix)  # before reset_matrices below
    expected = expected_after(lab, iters)
    assert len(expected) == len(got)
    for e, g in zip(expected, got):
        assert math.isclose(e, g, rel_tol=1e-12, abs_tol=1e-12)


def test_spec_pack_layout():
    spec = StencilSpec.five_point()
    raw = spec.pack()
    from repro.models.stencil import MAX_POINTS
    assert len(raw) == 8 + MAX_POINTS * 24
    import struct

    assert struct.unpack_from("<q", raw)[0] == 5
    f, dx, dy = struct.unpack_from("<dqq", raw, 8)
    assert (f, dx, dy) == (0.25, -1, 0)


def test_grouping_merges_equal_coefficients():
    groups = StencilSpec.five_point().grouped()
    assert len(groups) == 2
    assert groups[0][0] == 0.25 and len(groups[0][1]) == 4
    assert groups[1][0] == -1.0 and len(groups[1][1]) == 1


def test_generic_matches_oracle(lab):
    lab.run_generic(ITERS)
    assert_matches_oracle(lab, ITERS)


def test_manual_matches_oracle(lab):
    lab.run_manual(ITERS)
    assert_matches_oracle(lab, ITERS)


def test_grouped_generic_matches_oracle(lab):
    lab.run_grouped_generic(ITERS)
    assert_matches_oracle(lab, ITERS)


def test_compiler_inlined_matches_oracle(lab):
    lab.run_compiler_inlined(ITERS)
    assert_matches_oracle(lab, ITERS)


def test_rewritten_matches_oracle(lab):
    result = lab.rewrite_apply()
    assert result.ok, result.message
    lab.run_with_apply(result.entry, ITERS)
    assert_matches_oracle(lab, ITERS)


def test_rewritten_grouped_matches_oracle(lab):
    result = lab.rewrite_apply(grouped=True)
    assert result.ok, result.message
    lab.run_with_apply(result.entry, ITERS, grouped=True)
    assert_matches_oracle(lab, ITERS)


def test_rewritten_sweep_matches_oracle(lab):
    result = lab.rewrite_sweep()
    assert result.ok, result.message
    lab.reset_matrices()
    src, dst = lab.m1, lab.m2
    for _ in range(ITERS):
        lab.machine.call(result.entry, src, dst, XS, YS, lab.s_addr,
                         lab.machine.symbol("apply"))
        src, dst = dst, src
    lab.final_matrix = src
    assert_matches_oracle(lab, ITERS)


def test_section_v_cost_ordering(lab):
    """The paper's qualitative result: manual < rewritten < generic, and
    grouped-generic is the slowest generic variant."""
    generic = lab.run_generic(1).cycles
    manual = lab.run_manual(1).cycles
    grouped = lab.run_grouped_generic(1).cycles
    rewritten = lab.rewrite_apply()
    assert rewritten.ok
    rew = lab.run_with_apply(rewritten.entry, 1).cycles
    grouped_rewritten = lab.rewrite_apply(grouped=True)
    assert grouped_rewritten.ok
    rew_grouped = lab.run_with_apply(grouped_rewritten.entry, 1, grouped=True).cycles

    assert manual < generic
    assert rew < generic
    assert manual <= rew  # naive rewrite does not beat manual (Sec. V.A)
    assert grouped > generic  # grouping slows the generic version (Sec. V.B)
    # grouping lets the rewritten version close (most of) the gap to manual
    assert rew_grouped <= rew


def test_rewritten_apply_has_no_loop(lab):
    """Figure 6: the specialized apply is straight-line code."""
    from repro.isa.encoding import iter_decode
    from repro.isa.opcodes import OpClass, op_info

    result = lab.rewrite_apply()
    assert result.ok
    code = lab.machine.image.peek(result.entry, result.code_size)
    ops = [i.op for i in iter_decode(code, result.entry)]
    assert not any(op_info(op).opclass in (OpClass.JMP, OpClass.JCC) for op in ops)
    # 5 multiplications, one per stencil point
    mulsd = [op for op in ops if op.name == "MULSD"]
    assert len(mulsd) == len(lab.spec.points)


def test_nine_point_stencil_also_works():
    lab = StencilLab(xs=12, ys=12, spec=StencilSpec.nine_point())
    result = lab.rewrite_apply()
    assert result.ok, result.message
    lab.run_with_apply(result.entry, 1)
    got = lab.read_matrix(lab.final_matrix)
    expected = expected_after(lab, 1)
    for e, g in zip(expected, got):
        assert math.isclose(e, g, rel_tol=1e-12, abs_tol=1e-12)


# ------------------------------------------- respecialization under the JIT
#: Nine coefficient sets over the 3x3 neighbourhood; set ``j`` has
#: ``j + 1`` points.  Each set's variant has an address of its own, so
#: the sweep's loop heads see a new call target per set: nine outnumber
#: the versions two heads keep (2 x MAX_VERSIONS).
OFFSETS = [(dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
RETUNE_SETS = [
    StencilSpec([((k + 1) / (8.0 * (j + 1)), dx, dy)
                 for k, (dx, dy) in enumerate(OFFSETS[: j + 1])])
    for j in range(9)
]


def service_lab(trace: bool) -> StencilLab:
    lab = StencilLab(XS, YS)
    if trace:
        lab.machine.enable_jit(trace=True)
    lab.attach_service()
    return lab


def retune(lab: StencilLab, spec: StencilSpec) -> None:
    """Write a new coefficient set into the stencil's known memory and
    withdraw the variants that read it."""
    lab.spec = spec
    packed = spec.pack()
    lab.machine.image.poke(lab.s_addr, packed)
    lab.service.manager.invalidate_memory(lab.s_addr, lab.s_addr + len(packed))


def respecialize(lab: StencilLab, spec: StencilSpec) -> int:
    """Retune, then publish and return the variant for ``spec``."""
    retune(lab, spec)
    lab.apply_via_service()  # cold miss: the rewrite is queued
    lab.service.drain()
    entry = lab.apply_via_service()
    assert entry != lab.machine.symbol("apply")
    return entry


def sweep(lab: StencilLab, entry: int):
    """One sweep through ``entry``: the matrix, cycles and steps it left."""
    run = lab.run_with_apply(entry, 1)
    return lab.read_matrix(lab.final_matrix), run.perf.cycles, run.steps


def test_respecialization_under_trace_tier_matches_tier0():
    """The first round of retunes publishes a new variant per set; the
    second round rewrites each set to a body identical to its first
    variant, which is served instead, and the duplicate's span goes
    back to the allocator, so neither the rewrite segment nor the code
    cache grows.  Sweeps under the trace tier equal tier 0 and stay
    traced, even after the loop heads' version tables fill up."""
    traced, plain = service_lab(True), service_lab(False)
    image, jit = traced.machine.image, traced.machine.jit
    space = []
    for spec in RETUNE_SETS * 2:
        before = jit.stats()["trace_iterations"]
        got = sweep(traced, respecialize(traced, spec))
        assert jit.stats()["trace_iterations"] > before, spec
        assert got == sweep(plain, respecialize(plain, spec)), spec
        space.append((image._rewrite_next, jit.stats()["cached_blocks"]))
    # round 2 emits each duplicate where the last one was given back:
    # the first duplicate's blocks are the only ones it adds
    round2 = space[len(RETUNE_SETS):]
    assert round2 == [round2[0]] * len(RETUNE_SETS), space
    assert round2[0][0] == space[len(RETUNE_SETS) - 1][0]
    assert traced.service.manager.stats()["code_dedup"] == len(RETUNE_SETS)


def test_withdrawn_variant_is_not_called_again():
    """Right after ``invalidate_memory`` the service hands out the
    original ``apply``; a sweep through it equals tier 0 although no
    code was written since the traces that inlined the variant formed."""
    traced, plain = service_lab(True), service_lab(False)
    for lab in (traced, plain):
        sweep(lab, respecialize(lab, RETUNE_SETS[4]))  # the variant is traced
    invalidations = traced.machine.jit.stats()["invalidations"]
    outs = []
    for lab in (traced, plain):
        retune(lab, RETUNE_SETS[7])
        entry = lab.apply_via_service()
        assert entry == lab.machine.symbol("apply")
        outs.append(sweep(lab, entry))
    assert traced.machine.jit.stats()["invalidations"] == invalidations
    assert outs[0] == outs[1]


def test_unrelated_emission_recompiles_nothing():
    """A rewrite emits at fresh addresses, so the blocks and traces of
    a warm loop elsewhere survive it."""
    lab = StencilLab(XS, YS)
    jit = lab.machine.enable_jit(trace=True)
    lab.run_generic(1)
    expected = sweep(lab, lab.machine.symbol("apply"))
    compiles = jit.stats()["compiles"]
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_KNOWN)
    assert brew_rewrite(lab.machine, conf, "apply_manual",
                        lab.m1 + 8 * (XS + 1), XS, lab.s_addr).ok
    assert sweep(lab, lab.machine.symbol("apply")) == expected
    assert jit.stats()["compiles"] == compiles
