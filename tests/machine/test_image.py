"""Executable-image tests: allocators, symbols, remote nodes, literals."""

from __future__ import annotations

import struct

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.asm.assembler import assemble
from repro.core import BREW_KNOWN, BREW_PTR_TO_KNOWN, brew_init_conf, brew_setpar
from repro.core.manager import SpecializationManager
from repro.core.persist import load_manager, save_manager
from repro.core.tracer import Tracer
from repro.errors import DecodeError, LinkError, MemoryError_
from repro.isa.encoding import decode
from repro.machine.image import Image, LAYOUT
from repro.machine.vm import Machine


@pytest.fixture()
def image() -> Image:
    return Image()


def test_add_function_places_and_names(image):
    addr = image.add_function("f", b"\x70\x00" * 3)
    assert image.symbol("f") == addr
    assert image.seg_code.contains(addr, 6)
    assert image.function_sizes[addr] == 6
    assert image.peek(addr, 2) == b"\x70\x00"


def test_functions_are_aligned(image):
    a = image.add_function("a", b"\x70\x00")
    b = image.add_function("b", b"\x70\x00")
    assert a % 16 == 0 and b % 16 == 0 and b > a


def test_duplicate_symbol_rejected(image):
    image.add_function("f", b"\x70\x00")
    with pytest.raises(LinkError):
        image.add_function("f", b"\x70\x00")


def test_undefined_symbol_raises(image):
    with pytest.raises(LinkError):
        image.symbol("nope")


def test_resolve_accepts_addresses(image):
    assert image.resolve(0x1234) == 0x1234


def test_data_vs_rodata_permissions(image):
    rw = image.add_data("g", b"\x01" * 8)
    ro = image.add_rodata("c", b"\x02" * 8)
    image.memory.write_u64(rw, 5)
    with pytest.raises(MemoryError_):
        image.memory.write_u64(ro, 5)


def test_malloc_zeroed_and_aligned(image):
    a = image.malloc(24)
    b = image.malloc(3, align=16)
    assert b % 16 == 0
    assert image.peek(a, 24) == b"\x00" * 24


def test_heap_exhaustion(image):
    with pytest.raises(MemoryError_):
        image.malloc(LAYOUT.heap_size + 1)


def test_emit_rewritten_lands_in_rewrite_segment(image):
    addr = image.emit_rewritten("f__brew", b"\x70\x00")
    assert image.seg_rewrite.contains(addr, 2)
    assert image.symbol("f__brew") == addr


def test_free_rewrite_refuses_all_but_the_latest_span(image):
    a = image.emit_rewritten("a", b"\x70\x00" * 3)
    b = image.emit_rewritten("b", b"\x70\x00")
    tables = (dict(image.symbols), dict(image.symbol_names),
              dict(image.function_sizes))
    assert not image.free_rewrite(a, 6)  # an older span
    assert not image.free_rewrite(b, 1)  # part of the latest one
    assert tables == (image.symbols, image.symbol_names, image.function_sizes)
    assert image.alloc_rewrite(2) > b


def test_free_rewrite_gives_the_latest_span_back(image):
    a = image.emit_rewritten("a", b"\x70\x00" * 3)
    b = image.emit_rewritten("b", b"\x70\x00")
    assert image.free_rewrite(b, 2)
    assert "b" not in image.symbols and b not in image.symbol_names
    assert b not in image.function_sizes
    assert image.symbol("a") == a and image.function_sizes[a] == 6
    assert image.alloc_rewrite(2) == b


RECLAIM_SOURCE = """
struct Cfg { long scale; };
noinline long scaled(long x, struct Cfg *c) { return x * c->scale; }
noinline long shifted(long x, long k) { return x + k; }
"""


def _reclaim_machine():
    m = Machine()
    m.load(RECLAIM_SOURCE)
    cfg = m.image.malloc(8)
    m.memory.write_u64(cfg, 3)
    return m, cfg, m.image.malloc(8)


def test_snapshot_round_trip_after_a_reclaim(tmp_path):
    """A deduplicated body's span is reused by the next rewrite, and a
    snapshot taken afterwards restores every entry."""
    m, cfg, scratch = _reclaim_machine()
    mgr = SpecializationManager(m)
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_PTR_TO_KNOWN)
    dup = brew_init_conf()
    brew_setpar(dup, 2, BREW_PTR_TO_KNOWN)
    dup.add_known_memory(scratch, scratch + 8)  # never read: same body
    known = brew_init_conf()
    brew_setpar(known, 2, BREW_KNOWN)
    r1 = mgr.get(conf, "scaled", 0, cfg)
    r2 = mgr.get(dup, "scaled", 0, cfg)
    r3 = mgr.get(known, "shifted", 0, 5)
    assert r1.ok and r2.ok and r3.ok and mgr.stats()["code_dedup"] == 1
    assert r2.entry == r1.entry
    assert r3.entry == (r1.entry + r1.code_size + 15) & ~15  # the freed span
    path = save_manager(mgr, tmp_path / "spec.snap")

    m2, cfg2, _ = _reclaim_machine()
    assert cfg2 == cfg  # the same layout: the restored bodies read it
    mgr2 = SpecializationManager(m2)
    report = load_manager(mgr2, path)
    assert not report.rejected
    assert sorted(report.restored_ok) == sorted(
        key for key, *_ in mgr.export_entries())
    for key in report.restored_ok:
        result = mgr2.cached_result(key)
        if result.name.startswith("scaled"):
            assert m2.call(result.entry, 7, cfg).int_return == 21
        else:
            assert m2.call(result.entry, 7, 5).int_return == 12


def test_host_slots_unmapped_and_below_2_31(image):
    addr = image.alloc_host_slot("host")
    assert addr < 2**31
    with pytest.raises(MemoryError_):
        image.memory.read_u64(addr)


def test_remote_nodes_have_surcharge_and_distinct_bases(image):
    s1 = image.map_remote_node(1, 0x100, extra_cost=99)
    s2 = image.map_remote_node(2, 0x100, extra_cost=99)
    assert s2.base - s1.base == LAYOUT.remote_stride
    assert image.memory.access_cost(s1.base) == 99


def test_float_literal_pool_dedupes(image):
    a = image.float_literal(2.5)
    b = image.float_literal(2.5)
    c = image.float_literal(-2.5)
    assert a == b != c
    assert struct.unpack("<d", image.peek(a, 8))[0] == 2.5


def test_float_literal_distinguishes_zero_signs(image):
    assert image.float_literal(0.0) != image.float_literal(-0.0)


def test_initial_rsp_aligned_inside_stack(image):
    rsp = image.initial_rsp
    assert rsp % 16 == 0
    assert image.seg_stack.contains(rsp - 8, 8)


# ------------------------------------------------------- the decode cache
#: Encodings the property test writes, 2 to 18 bytes long (the longest
#: encoding: two 8-byte operands), so writes straddle cached entries at
#: every offset the listener's 17-byte look-back must cover.
_CODE_POOL = (
    "nop", "ret", "mov rax, rdi", "add rax, 5", f"mov rcx, {1 << 40}",
    "lea rax, [rdi+rsi*8+16]", "imul rax, [rdi+8]",
    f"mov [rdi+rsi*8+64], {1 << 40}", "jmp 4096",
)
_REGION = 64


def _fresh(image: Image, addr: int):
    """What the bytes at ``addr`` decode to now (or the error type)."""
    seg = image.memory.segment_for(addr, 2)
    try:
        return decode(seg.data, addr, addr - seg.base)
    except DecodeError as exc:
        return type(exc)


def _read(reader, addr: int):
    try:
        return reader(addr)
    except DecodeError as exc:
        return type(exc)


_WRITE = st.tuples(st.sampled_from(["poke", "store0", "store1"]),
                   st.integers(0, 1), st.integers(0, _REGION - 1),
                   st.integers(0, len(_CODE_POOL) - 1),
                   st.integers(0, (1 << 64) - 1))
_READ = st.tuples(st.just("read"), st.integers(0, 1),
                  st.integers(0, _REGION - 1))


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate))
@given(steps=st.lists(st.one_of(_WRITE, _READ), min_size=4, max_size=40))
def test_decode_cache_matches_fresh_decodes(steps):
    """Random code writes — ``poke`` into the code and rewrite segments,
    guest stores from the interpreter and from tier 1 — interleaved with
    fetches through the three readers (the interpreter's
    :meth:`Image.fetch`, tier 1's ``_decode_block``, the tracer's
    ``_decode``): every fetch, and every entry left in the cache, equals
    a fresh decode of the current bytes."""
    m = Machine()
    image = m.image
    # three 18-byte instructions, then short ones: fetched as one run
    fill = assemble("\n".join([_CODE_POOL[7]] * 3 + ["add rax, 5"] * 2
                               + ["ret"]), 0)[0].ljust(_REGION, b"\x00")
    regions = [image.add_function("region", fill),
               image.emit_rewritten("rwregion", fill)]
    storer = image.add_function("storer", assemble("mov [rdi], rsi\nret",
                                                   0)[0])
    jit = m.enable_jit()
    tracer = Tracer(image, brew_init_conf(), regions[0])
    readers = (image.fetch, lambda a: jit._decode_block(a)[0][0],
               tracer._decode)
    for region in regions:
        jit._decode_block(region)  # warm: caches the whole run
    for step in steps:
        addr = regions[step[1]] + step[2]
        kind = step[0]
        if kind == "poke":
            code = assemble(_CODE_POOL[step[3]], addr)[0]
            image.poke(addr, code[:regions[step[1]] + _REGION - addr])
        elif kind.startswith("store"):
            addr = min(addr, regions[step[1]] + _REGION - 8)
            m.cpu.jit = jit if kind == "store1" else None
            m.cpu.run(storer, addr, step[4])
            m.cpu.jit = jit
        else:
            want = _fresh(image, addr)
            for reader in readers:
                assert _read(reader, addr) == want
        for cached, insn in image.decoded.items():
            assert insn == _fresh(image, cached), hex(cached)
