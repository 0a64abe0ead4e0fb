"""Known-world state unit + property tests (lattice laws the tracer's
correctness rests on)."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.core.known import (
    KnownFloat, KnownInt, RegSnapshot, StackRel, World,
    abs_key, generalize, materialization_needs, migration_mismatch, stack_key,
)
from repro.isa.flags import Flag
from repro.isa.registers import GPR, XMM


def make_world(**regs) -> World:
    w = World.entry_world()
    for name, value in regs.items():
        w.regs[GPR[name.upper()]] = value
    return w


def test_entry_world_only_rsp_known():
    w = World.entry_world()
    assert w.regs[GPR.RSP] == StackRel(0)
    assert all(w.regs[r] is None for r in GPR if r is not GPR.RSP)
    assert all(v is None for v in w.xmm.values())


def test_world_dicts_keep_enum_order():
    """Worlds are built from member tuples, not by iterating the enum
    classes; the dict order (and so every digest) is the enum order."""
    w = make_world(rax=KnownInt(3))
    assert list(w.regs) == list(GPR) and list(w.xmm) == list(XMM)
    assert list(w.flags) == list(Flag)
    w.kill_flags()
    assert list(w.flags) == list(Flag)
    assert all(v is None for v in w.flags.values())
    regs, xmm, _, _ = w.digest()
    assert regs == tuple(w.regs[r] for r in GPR)
    assert xmm == tuple(w.xmm[x] for x in XMM)


def test_digest_equality_and_hash():
    a = make_world(rax=KnownInt(5))
    b = make_world(rax=KnownInt(5))
    # the digest sorts the cells, so insertion order does not matter
    a.mem[abs_key(0x1000)] = KnownInt(1)
    a.mem[stack_key(-8)] = None
    b.mem[stack_key(-8)] = None
    b.mem[abs_key(0x1000)] = KnownInt(1)
    assert a == b and hash(a) == hash(b)
    b.regs[GPR.RAX] = KnownInt(6)
    assert a != b


def test_digest_ignores_flags():
    a = make_world()
    b = make_world()
    a.flags[Flag.ZF] = True
    assert a == b


def test_copy_is_deep_enough():
    """Mutating a copy in any part leaves the original, and its digest,
    unchanged, while the copy's digest moves."""
    a = make_world(rax=KnownInt(1))
    a.mem[stack_key(-8)] = KnownInt(2)
    a.mem[abs_key(0x1000)] = KnownInt(3)
    a.xmm[XMM.XMM0] = KnownFloat(1.5)
    a.flags[Flag.ZF] = True
    before = a.digest()
    b = a.copy()
    assert b.digest() == before
    b.regs[GPR.RAX] = None
    b.xmm[XMM.XMM0] = None
    b.flags[Flag.ZF] = False
    b.mem[stack_key(-8)] = None
    del b.mem[abs_key(0x1000)]
    b.mem[abs_key(0x1008)] = KnownInt(4)
    b.escaped = True
    assert a.regs[GPR.RAX] == KnownInt(1)
    assert a.xmm[XMM.XMM0] == KnownFloat(1.5)
    assert a.flags[Flag.ZF] is True
    assert a.mem == {stack_key(-8): KnownInt(2), abs_key(0x1000): KnownInt(3)}
    assert a.escaped is False
    assert a.digest() == before
    assert b.digest() != before


def test_migration_subset_rule():
    rich = make_world(rax=KnownInt(1), rcx=KnownInt(2))
    poor = make_world(rax=KnownInt(1))
    assert migration_mismatch(rich, poor) == []        # rich -> poor ok
    assert migration_mismatch(poor, rich) != []        # poor lacks rcx


def test_migration_value_conflict():
    a = make_world(rax=KnownInt(1))
    b = make_world(rax=KnownInt(2))
    assert migration_mismatch(a, b) != []


def test_migration_memory_rules():
    src = make_world()
    dst = make_world()
    src.mem[abs_key(0x1000)] = KnownInt(5)
    dst.mem[abs_key(0x1000)] = None  # dirty: runtime-live expected
    assert migration_mismatch(src, dst) == []
    _, _, mem_keys = materialization_needs(src, dst)
    assert abs_key(0x1000) in mem_keys


def test_snapshot_alias_blocks_materializing_migration():
    # dst folds a cell to rsi; src would materialize rsi on the edge,
    # which clobbers the aliased content -> must be incompatible
    src = make_world(rsi=KnownInt(7))
    dst = make_world()
    snap = RegSnapshot(GPR.RSI, 0)
    src.mem[stack_key(-16)] = snap
    dst.mem[stack_key(-16)] = snap
    assert migration_mismatch(src, dst) != []


def test_generalize_keeps_agreement_drops_conflict():
    a = make_world(rax=KnownInt(1), rcx=KnownInt(2))
    b = make_world(rax=KnownInt(1), rcx=KnownInt(3))
    g = generalize(a, b)
    assert g.regs[GPR.RAX] == KnownInt(1)
    assert g.regs[GPR.RCX] is None


def test_generalize_memory_disagreement_goes_dirty():
    a = make_world()
    b = make_world()
    a.mem[stack_key(-8)] = KnownInt(1)
    b.mem[stack_key(-8)] = KnownInt(2)
    g = generalize(a, b)
    assert g.mem[stack_key(-8)] is None


def test_generalize_demotes_snapshot_when_register_diverges():
    snap = RegSnapshot(GPR.RSI, 0)
    a = make_world(rsi=KnownInt(7))
    b = make_world()
    a.mem[stack_key(-16)] = snap
    b.mem[stack_key(-16)] = snap
    g = generalize(a, b)
    assert g.mem[stack_key(-16)] is None


def test_known_float_bit_pattern_identity():
    assert KnownFloat(0.0) != KnownFloat(-0.0)
    assert KnownFloat(1.5) == KnownFloat(1.5)


# ------------------------------------------------------------- properties
values = st.one_of(
    st.none(),
    st.integers(min_value=0, max_value=2**64 - 1).map(KnownInt),
    st.integers(min_value=-512, max_value=512).map(StackRel),
)


@st.composite
def worlds(draw):
    w = World.entry_world()
    for reg in (GPR.RAX, GPR.RCX, GPR.RDX):
        w.regs[reg] = draw(values)
    for offset in (-8, -16):
        v = draw(values)
        if v is not None or draw(st.booleans()):
            w.mem[stack_key(offset)] = v
    return w


@given(a=worlds(), b=worlds())
def test_generalize_is_commutative_on_digests(a, b):
    assert generalize(a, b) == generalize(b, a)


@given(a=worlds())
def test_generalize_idempotent(a):
    g = generalize(a, a)
    # self-join keeps all knowledge except snapshot corner cases (none here)
    assert g == a or g.known_count <= a.known_count


@given(a=worlds(), b=worlds())
def test_everything_migrates_into_the_generalization(a, b):
    g = generalize(a, b)
    assert migration_mismatch(a, g) == []
    assert migration_mismatch(b, g) == []


@given(a=worlds(), b=worlds())
def test_generalize_never_gains_knowledge(a, b):
    g = generalize(a, b)
    assert g.known_count <= min(a.known_count, b.known_count) + len(g.mem)
    # regs specifically never gain
    for reg in GPR:
        if g.regs[reg] is not None:
            assert g.regs[reg] == a.regs[reg] == b.regs[reg]

