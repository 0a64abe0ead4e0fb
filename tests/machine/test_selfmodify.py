"""Self-modifying guests stay coherent across execution tiers (PR 6).

The machine permits plain guest stores into executable segments (there
is no W^X in BX64's flat world), which makes self-modification a
first-class hazard: the interpreter caches decoded instructions per pc,
and the block JIT caches whole compiled blocks.  Both caches hang off
:meth:`repro.machine.image.Image.notify_code_write` — fired by
``Image.poke`` (the host/emit route) and by the CPU's store helpers and
compiled-block stores (the organic guest route).

The regression pinned here: a guest that rewrites its own **hot** block
mid-run must trigger cache invalidation on every tier and reconverge
bit-for-bit with the plain interpreter — including a store that patches
a *later instruction of the block it is currently executing* (the
compiled block bails out early through its code-write exit rather than
running stale instructions).
"""

from __future__ import annotations

import struct

import pytest

from repro.asm.assembler import assemble
from repro.machine.vm import Machine


def load_asm(machine: Machine, name: str, src: str) -> int:
    probe, _ = assemble(src, 0, extra_labels=dict(machine.image.symbols))
    addr = machine.image.add_function(name, b"\x00" * len(probe))
    code, _ = assemble(src, addr, extra_labels=dict(machine.image.symbols))
    machine.image.poke(addr, code)
    return addr


def _patch_qword(new_imm: int) -> int:
    """A qword that overwrites ``mov rax, imm32`` (7 bytes) and
    re-asserts the opcode byte of the ``ret`` that follows it."""
    victim = assemble(f"mov rax, {new_imm}", 0)[0]
    assert len(victim) == 7
    return struct.unpack("<Q", victim + assemble("ret", 0)[0][:1])[0]


def _build_target(machine: Machine) -> int:
    """``target``: returns 111 until its immediate is patched."""
    return load_asm(machine, "target", "mov rax, 111\nret")


def _build_patcher(machine: Machine, target: int) -> int:
    """``patcher``: stores the patch qword over ``target``'s body."""
    src = "\n".join([
        f"mov rcx, {_patch_qword(222)}",
        f"mov [{target}], rcx",
        "mov rax, rdi",
        "ret",
    ])
    return load_asm(machine, "patcher", src)


def _run_sequence(machine: Machine) -> tuple:
    """hot -> patch -> rerun; returns every architectural observation."""
    target = machine.image.resolve("target")
    patcher = machine.image.resolve("patcher")
    before = machine.cpu.run(target)           # compiles/caches the block
    again = machine.cpu.run(target)            # served from the cache
    patched = machine.cpu.run(patcher, 7)      # organic store over target
    after = machine.cpu.run(target)            # must see the new bytes
    return (
        before.uint_return, again.uint_return,
        patched.uint_return, after.uint_return,
        before.steps, again.steps, patched.steps, after.steps,
    )


def test_interpreter_icache_invalidated_by_guest_store():
    m = Machine()
    _build_patcher(m, _build_target(m))
    assert _run_sequence(m) == (111, 111, 7, 222, 2, 2, 4, 2)


def test_blockjit_invalidated_by_guest_store_and_matches_interpreter():
    interp = Machine()
    _build_patcher(interp, _build_target(interp))
    jit = Machine()
    _build_patcher(jit, _build_target(jit))
    engine = jit.enable_jit()
    assert _run_sequence(jit) == _run_sequence(interp)
    assert engine.invalidations >= 1, "the compiled target block survived"


def test_blockjit_invalidated_by_host_poke():
    """The emit/host route: ``Image.poke`` over compiled code must drop
    the block just like a guest store does."""
    m = Machine()
    target = _build_target(m)
    engine = m.enable_jit()
    assert m.cpu.run(target).uint_return == 111
    assert target in engine.cache
    m.image.poke(target, assemble("mov rax, 333\nret", target)[0])
    assert target not in engine.cache
    assert m.cpu.run(target).uint_return == 333


def test_store_into_own_block_takes_the_codewrite_exit():
    """The hardest case: the store patches a *later* instruction of the
    very block being executed.  The interpreter refetches per step and
    sees the new immediate; the compiled block must bail out through its
    code-write exit instead of running the stale tail."""
    def build(machine: Machine) -> int:
        entry = machine.image.add_function("selfmod", bytes(64))
        mov_i64 = len(assemble(f"mov rcx, {1 << 40}", 0)[0])
        store = len(assemble("mov [4096], rcx", 0)[0])
        victim_addr = entry + mov_i64 + store
        src = "\n".join([
            f"mov rcx, {_patch_qword(999)}",
            f"mov [{victim_addr}], rcx",
            "mov rax, 111",              # the victim: becomes 999
            "ret",
        ])
        machine.image.poke(entry, assemble(src, entry)[0])
        return entry

    interp = Machine()
    e1 = build(interp)
    want = interp.cpu.run(e1)
    assert want.uint_return == 999, "interpreter must see the patched imm"

    jit = Machine()
    e2 = build(jit)
    jit.enable_jit()
    got = jit.cpu.run(e2)
    assert (got.uint_return, got.steps) == (want.uint_return, want.steps)
    assert got.perf.instructions == want.perf.instructions

    # a second run executes the patched body on both tiers
    assert jit.cpu.run(e2).uint_return == interp.cpu.run(e1).uint_return


@pytest.mark.parametrize("tier", ["interp", "blockjit", "tracejit"])
def test_selfmod_loop_reconverges(tier):
    """A hot loop that flips its own addend mid-run: iteration count and
    accumulator must be identical on every tier (the loop body block is
    recompiled after the in-loop store).  On the trace tier the store
    lands while the trace over the loop is *the running frame* — the
    code-write exit must sever it mid-flight."""
    m = Machine()
    entry = m.image.add_function("loopmod", bytes(128))
    # the victim "add rax, 1" sits right after the two-insn header; the
    # patch qword is its "add rax, 2" replacement (7 bytes) plus the
    # opcode byte of the nop that follows
    xor_l = len(assemble("xor rax, rax", 0)[0])
    movc_l = len(assemble("mov rcx, 6", 0)[0])
    victim_addr = entry + xor_l + movc_l
    add_two = assemble("add rax, 2", 0)[0]
    nop_op = assemble("nop", 0)[0][:1]
    qword = struct.unpack("<Q", add_two + nop_op)[0]
    src = "\n".join([
        "xor rax, rax",
        "mov rcx, 24",
        "loop:",
        "add rax, 1",            # victim
        "nop",                   # keeps the patch qword in the body
        "sub rcx, 1",
        "cmp rcx, 12",
        "jne skip",
        f"mov rdx, {qword}",
        f"mov [{victim_addr}], rdx",
        "skip:",
        "cmp rcx, 0",
        "jne loop",
        "ret",
    ])
    m.image.poke(entry, assemble(src, entry)[0])

    if tier == "blockjit":
        m.enable_jit()
    elif tier == "tracejit":
        engine = m.enable_jit(trace=True, hot_threshold=4, min_edge=1)
    run = m.cpu.run(entry)
    # 12 iterations of +1, then the patch lands, then 12 of +2
    assert run.uint_return == 12 * 1 + 12 * 2
    if tier == "tracejit":
        # the hot-path trace must have formed before the patch landed
        # (the rare patch branch is a side exit; the store then severs
        # the installed trace through the invalidation path)
        stats = engine.stats()
        assert stats["trace_installs"] >= 1, stats
        assert stats["trace_invalidations"] >= 1, stats


def test_selfmod_loop_trace_matches_interpreter_exactly():
    """The trace-tier run of the self-patching loop must match the
    interpreter on *every* deterministic counter, not just the result —
    the side exit into the patch block and the invalidation afterwards
    both carry exact step/cycle accounting."""
    def build(machine: Machine) -> int:
        entry = machine.image.add_function("loopmod", bytes(128))
        xor_l = len(assemble("xor rax, rax", 0)[0])
        movc_l = len(assemble("mov rcx, 24", 0)[0])
        victim_addr = entry + xor_l + movc_l
        add_two = assemble("add rax, 2", 0)[0]
        nop_op = assemble("nop", 0)[0][:1]
        qword = struct.unpack("<Q", add_two + nop_op)[0]
        src = "\n".join([
            "xor rax, rax",
            "mov rcx, 24",
            "loop:",
            "add rax, 1",
            "nop",
            "sub rcx, 1",
            "cmp rcx, 12",
            "jne skip",
            f"mov rdx, {qword}",
            f"mov [{victim_addr}], rdx",
            "skip:",
            "cmp rcx, 0",
            "jne loop",
            "ret",
        ])
        machine.image.poke(entry, assemble(src, entry)[0])
        return entry

    interp = Machine()
    want = interp.cpu.run(build(interp))
    traced = Machine()
    e = build(traced)
    traced.enable_jit(trace=True, hot_threshold=4, min_edge=1)
    got = traced.cpu.run(e)
    assert (got.uint_return, got.steps) == (want.uint_return, want.steps)
    assert got.perf.as_dict() == want.perf.as_dict()


def test_trace_codewrite_exit_every_iteration():
    """A loop whose *hot path* stores over its own body every iteration
    (same bytes, so semantics never change): each trace entry must take
    the code-write exit after at most one iteration, invalidate, and
    reconverge bit-for-bit with the interpreter — the trace tier can
    never batch iterations past a store into executable bytes."""
    def build(machine: Machine) -> int:
        entry = machine.image.add_function("storemod", bytes(96))
        xor_l = len(assemble("xor rax, rax", 0)[0])
        movc_l = len(assemble("mov rcx, 40", 0)[0])
        movd_l = len(assemble(f"mov rdx, {1 << 40}", 0)[0])
        victim_addr = entry + xor_l + movc_l + movd_l
        add_one = assemble("add rax, 1", 0)[0]
        nop_op = assemble("nop", 0)[0][:1]
        qword = struct.unpack("<Q", add_one + nop_op)[0]
        src = "\n".join([
            "xor rax, rax",
            "mov rcx, 40",
            f"mov rdx, {qword}",
            "loop:",
            "add rax, 1",            # victim: rewritten with itself
            "nop",
            f"mov [{victim_addr}], rdx",
            "sub rcx, 1",
            "cmp rcx, 0",
            "jne loop",
            "ret",
        ])
        machine.image.poke(entry, assemble(src, entry)[0])
        return entry

    interp = Machine()
    want = interp.cpu.run(build(interp))
    assert want.uint_return == 40

    traced = Machine()
    e = build(traced)
    engine = traced.enable_jit(trace=True, hot_threshold=4, min_edge=1)
    got = traced.cpu.run(e)
    assert (got.uint_return, got.steps) == (want.uint_return, want.steps)
    assert got.perf.as_dict() == want.perf.as_dict()
    stats = engine.stats()
    assert stats["interp_fallbacks"] == 0
