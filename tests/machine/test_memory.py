"""Memory subsystem tests."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import MemoryError_, SegmentationFault
from repro.machine.memory import Memory, Perm, Segment
from repro.machine.vm import Machine


@pytest.fixture
def mem() -> Memory:
    m = Memory()
    m.map_segment(Segment("ram", 0x1000, 0x1000, Perm.RW))
    m.map_segment(Segment("rom", 0x4000, 0x100, Perm.R))
    m.map_segment(Segment("remote", 0x8000, 0x100, Perm.RW, extra_cost=200))
    return m


def test_read_write_roundtrip(mem):
    mem.write_u64(0x1008, 0xDEADBEEF)
    assert mem.read_u64(0x1008) == 0xDEADBEEF


def test_f64_roundtrip(mem):
    mem.write_f64(0x1010, -2.5)
    assert mem.read_f64(0x1010) == -2.5


def test_i64_signed_view(mem):
    mem.write_u64(0x1000, 2**64 - 3)
    assert mem.read_i64(0x1000) == -3


def test_unmapped_access_faults(mem):
    with pytest.raises(SegmentationFault):
        mem.read_u64(0x9999)


def test_access_straddling_segment_end_faults(mem):
    with pytest.raises(SegmentationFault):
        mem.read_u64(0x1000 + 0x1000 - 4)


def test_write_to_readonly_rejected(mem):
    with pytest.raises(MemoryError_):
        mem.write_u64(0x4000, 1)


def test_overlapping_segments_rejected(mem):
    with pytest.raises(MemoryError_):
        mem.map_segment(Segment("bad", 0x1800, 0x1000))


def test_extra_cost_surfaced(mem):
    assert mem.access_cost(0x8000) == 200
    assert mem.access_cost(0x1000) == 0


def test_segment_by_name(mem):
    assert mem.segment_by_name("rom").base == 0x4000
    with pytest.raises(MemoryError_):
        mem.segment_by_name("nope")


@given(
    value=st.integers(min_value=0, max_value=2**64 - 1),
    offset=st.integers(min_value=0, max_value=0xF00),
)
def test_u64_roundtrip_property(value, offset):
    m = Memory()
    m.map_segment(Segment("ram", 0x1000, 0x1000, Perm.RW))
    m.write_u64(0x1000 + offset, value)
    assert m.read_u64(0x1000 + offset) == value


@given(value=st.floats(allow_nan=False, allow_infinity=True))
def test_f64_roundtrip_property(value):
    m = Memory()
    m.map_segment(Segment("ram", 0x1000, 0x100, Perm.RW))
    m.write_f64(0x1000, value)
    assert m.read_f64(0x1000) == value


# -- write journal ------------------------------------------------------
def test_journal_keeps_the_pre_image_of_the_first_write(mem):
    mem.write_u64(0x1000, 1)
    before = bytes(mem.segment_by_name("ram").data)
    mem.open_journal()
    ram = mem.segment_by_name("ram")
    assert ram.watched and mem.segment_by_name("remote").watched
    assert mem.segment_by_name("rom").watched, (
        "guest stores are not permission-checked: read-only is journaled too")
    mem.write_u64(0x1000, 2)
    assert mem.journal == {"ram": before}
    assert not ram.watched, "a journaled segment leaves the slow path"
    mem.write_u64(0x1008, 3)
    assert mem.journal == {"ram": before}, "only the first write copies"
    mem.rollback()
    assert bytes(ram.data) == before and mem.journal == {"ram": before}
    mem.close_journal()
    assert mem.journal is None
    assert not any(seg.watched for seg in mem.segments)


def test_second_journal_is_refused(mem):
    mem.open_journal()
    with pytest.raises(MemoryError_, match="already open"):
        mem.open_journal()
    mem.close_journal()
    mem.open_journal()  # one at a time, not one ever
    mem.close_journal()


def test_every_store_path_journals_before_writing():
    """``Image.poke``, ``Memory.write_bytes`` and both CPU store helpers
    each take the pre-image of the segment they write first, and a
    rollback undoes all of them."""
    m = Machine()
    image, memory, cpu = m.image, m.memory, m.cpu
    image.map_remote_node(0, 0x1000, 50)
    heap, data = image.malloc(16), image.add_data(None, b"\x07" * 8)
    stack, remote = image.initial_rsp - 8, 0x1_0000_0000
    seg = {s.name: s for s in memory.segments}
    before = {name: bytes(s.data) for name, s in seg.items()}
    memory.open_journal()
    image.poke(heap, b"\x01" * 8)
    memory.write_bytes(data, b"\x02" * 8)
    cpu.store_u64(stack, 3)
    cpu.store_f64(remote, 4.0)
    assert set(memory.journal) == {"heap", "data", "stack", "remote0"}
    for name, pre in memory.journal.items():
        assert pre == before[name], name
    assert not any(seg[n].watched for n in memory.journal)
    # code is journaled too, and stays watched for the code listeners
    image.poke(image.seg_code.base, b"\x90")
    assert memory.journal["code"] == before["code"] and seg["code"].watched
    memory.rollback()
    memory.close_journal()
    assert {name: bytes(s.data) for name, s in seg.items()} == before
    assert [s.name for s in memory.segments if s.watched] == ["code", "rewrite"]


#: ``clobber(victim)`` stores a qword over ``victim``'s first bytes.
CLOBBER = """
noinline long victim(long x) { return x + 1; }
noinline long clobber(long *p) { *p = 0x7777777777777777; return 0; }
"""


@pytest.mark.parametrize("tier", (0, 1, 2))
def test_rollback_undoes_a_guest_store_into_code(tier):
    """A guest store into code under an open journal is undone by the
    rollback, which announces the restored span (and only that) to the
    code listeners, so no tier runs the clobbered bytes afterwards."""
    m = Machine()
    m.load(CLOBBER)
    if tier:
        m.enable_jit(trace=tier == 2)
    victim = m.symbol("victim")
    assert m.call(victim, 41).int_return == 42  # decoded and compiled
    before = m.image.peek(victim, 8)
    heard = []
    m.image.code_listeners.append(lambda addr, n: heard.append((addr, n)))
    m.memory.open_journal()
    m.call("clobber", victim)
    assert m.image.peek(victim, 8) == b"\x77" * 8
    assert "code" in m.memory.journal and m.image.seg_code.watched
    heard.clear()
    m.memory.rollback()
    m.memory.close_journal()
    assert m.image.peek(victim, 8) == before
    [(addr, length)] = heard
    assert victim <= addr and addr + length <= victim + 8
    assert m.call(victim, 41).int_return == 42
