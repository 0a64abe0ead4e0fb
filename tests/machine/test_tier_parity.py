"""Three-tier parity over random guest code: the interpreter (tier 0),
the block JIT (tier 1) and the trace JIT (tier 2) must leave identical
architectural and perf state.

The property test generates straight-line bodies inside a hot counted
loop.  Its generators cover every instruction class the block compiler
translates (``_BlockCompiler.gen_insn``): integer ALU, shift, multiply,
MOV and LEA; CMP/TEST feeding each of the 12 SETcc/Jcc conditions;
scalar and packed FP; PUSH/POP; DIV; loads and stores; and parts of the
body run inside helpers reached by ``call`` or ``calli``.  Loads from,
and stores into, two read-only cells at constant addresses exercise the
trace tier's hoisted loads, and spills to and reloads from stack slots
(aliased, overlapped, reloaded as a double, 4 bytes off or after
``rsp`` moved) its forwarding of stored values.  Bodies never fault: memory operands stay
inside one scratch buffer, those cells or the stack below ``rsp``,
PUSH/POP come in balanced pairs and every divisor is a nonzero
immediate.  With hair-trigger thresholds the loop promotes to a trace
within a few iterations, so forward branches inside the body exercise
guards and side exits.  Random operands rarely sit on a flag boundary,
so a deterministic sweep also runs every condition after CMP, TEST,
UCOMISD, ADD and SUB on operands that cross equality, sign and
overflow mid-loop.
Hand-written hot loops cover the ways a trace leaves through a call or
a return: guards inside callees, switching indirect targets, shared and
nested helpers, rewritten return slots and self-modifying callees.  The
models' call-heavy generic kernels (the Sec. V sweep calling ``apply``
through a pointer, the PGAS reduction calling ``ga_get`` per element)
run on all three tiers too.
The same random bodies, with loads from and stores into the read-only
cells and extended with stores into the data, stack and a remote
segment, also run under an open write journal on every tier: a
rollback must leave every segment byte-identical to a full copy, even
after a host function writes mid-run or the guest faults mid-trace.

NaN payloads are the one thing compared loosely.  When both operands
of a float add/sub/mul/div are NaNs with different bits, CPython returns
either operand's NaN depending on whether its adaptive interpreter has
specialized that ``+`` yet, so the payload varies between calls even on
one tier.  Lanes and FP buffer slots therefore compare every NaN as
equal, and the generators keep NaN bits from reaching integer state:
no ``movq reg, xmm``, ``xorpd`` only clears a register, and FP stores
write a buffer half, or a read-only cell, that integer instructions
never read.
"""

from __future__ import annotations

import math
import struct
import threading

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.asm.assembler import assemble
from repro.errors import CpuError
from repro.experiments.harness import result_fingerprint
from repro.isa.opcodes import OpClass
from repro.machine.blockjit import _BLOCK_ENDERS
from repro.machine.cpu import CallFrameInfo
from repro.machine.image import LAYOUT
from repro.machine.vm import Machine
from repro.models.pgas import PgasLab
from repro.models.stencil import StencilLab

#: Aggressive promotion thresholds, so test-sized loops reach tier 2.
HOT = dict(hot_threshold=4, min_edge=1)

#: Registers the body may read and write.  Reserved: rsp (stack), r13
#: (fixed index 2), r14 (scratch buffer base), r15 (loop counter).
GPRS = ("rax", "rcx", "rdx", "rbx", "rsi", "rdi", "rbp",
        "r8", "r9", "r10", "r11", "r12")
XMMS = tuple(f"xmm{i}" for i in range(8))
CONDS = ("e", "ne", "l", "ge", "le", "g", "b", "ae", "be", "a", "s", "ns")
#: Scratch buffer: FP stores go to the low half, integer loads and
#: stores use the high half, FP loads read either.
BUF_QWORDS = 32
FP_BYTES = 128
ITERS = 12
#: Two read-only cells at constant addresses, the first rodata of a
#: bare machine: integer instructions use ``RO_INT``, FP ones ``RO_FP``.
#: The trace tier hoists their loads; guest stores into them are
#: allowed, and an open write journal takes rodata's pre-image like any
#: other segment's.
RO_INT = LAYOUT.rodata_base
RO_FP = RO_INT + 8


def add_ro_cells(machine: Machine) -> None:
    """Store 7 and 1.25 in the read-only cells of a bare machine."""
    assert machine.image.add_rodata(None, struct.pack("<q", 7)) == RO_INT
    assert machine.image.add_rodata(None, struct.pack("<d", 1.25)) == RO_FP


def load_asm(machine: Machine, name: str, src: str) -> int:
    probe, _ = assemble(src, 0, extra_labels=dict(machine.image.symbols))
    addr = machine.image.add_function(name, b"\x00" * len(probe))
    code, _ = assemble(src, addr, extra_labels=dict(machine.image.symbols))
    machine.image.poke(addr, code)
    return addr


def machine_at(tier: int, **tuning) -> Machine:
    m = Machine()
    if tier == 1:
        m.enable_jit()
    elif tier == 2:
        m.enable_jit(trace=True, **tuning)
    return m


def _fp_bits(values) -> tuple:
    """Float values by bit pattern, with every NaN compared as equal."""
    return tuple("nan" if math.isnan(v) else struct.pack("<d", v)
                 for v in values)


#: The call-stack frames every run starts under.  ``cpu.run`` pushes no
#: frame for the function it enters, so that function's final ``ret``
#: pops one of them; the other keeps a frame that a trace exit failed to
#: push (or pushed twice) visible in the final stack.
CALLER_FRAMES = (CallFrameInfo(0, 1), CallFrameInfo(0, 2))


def run_fingerprint(machine: Machine, fn: int, buf: int) -> tuple:
    """Call ``fn(buf)``; everything architectural and counted about the
    run."""
    cpu = machine.cpu
    cpu.call_stack[:] = CALLER_FRAMES
    result = machine.call(fn, buf)
    fp_half = struct.unpack(f"<{FP_BYTES // 8}d",
                            machine.image.peek(buf, FP_BYTES))
    ro_int, ro_fp = struct.unpack("<Qd", machine.image.peek(RO_INT, 16))
    return (
        result.uint_return,
        _fp_bits([result.float_return]),
        result.steps,
        tuple(sorted(result.perf.as_dict().items())),
        tuple(cpu.regs),
        _fp_bits(v for lanes in cpu.xmm for v in lanes),
        tuple(sorted((f.name, bool(v)) for f, v in cpu.flags.items())),
        cpu.pc,
        [(f.target, f.return_addr) for f in cpu.call_stack],
        _fp_bits(fp_half),
        machine.image.peek(buf + FP_BYTES, BUF_QWORDS * 8 - FP_BYTES),
        ro_int,
        _fp_bits([ro_fp]),
    )


# ------------------------------------------------------------ regression
#: ``test`` then a sign-flag branch closing a hot loop: the trace guard
#: after a deferred TEST must handle S/NS like every other condition.
SIGN_LOOPS = {
    "jns": ("mov rcx, 200\nmov rax, 0\ntop:\nadd rax, 3\nsub rcx, 1\n"
            "test rcx, rcx\njns top\nret", (603, 807, 1216)),
    "js": ("mov rcx, -200\nmov rax, 0\ntop:\nadd rax, 3\nadd rcx, 1\n"
           "test rcx, rcx\njs top\nret", (600, 803, 1210)),
}


@pytest.mark.parametrize("tier", [0, 1, 2])
@pytest.mark.parametrize("branch", sorted(SIGN_LOOPS))
def test_test_then_sign_branch_loop(tier, branch):
    src, (ret, steps, cycles) = SIGN_LOOPS[branch]
    m = machine_at(tier)  # default thresholds: the loop still promotes
    load_asm(m, "f", src)
    r = m.call("f")
    assert (r.uint_return, r.steps, r.perf.cycles) == (ret, steps, cycles)
    if tier == 2:
        assert m.jit.stats()["trace_iterations"] > 0


@pytest.mark.parametrize("tier", [0, 1, 2])
def test_codeless_loop_exhausts_steps_like_the_interpreter(tier):
    """A cycle of NOPs and jumps compiles to a trace with an empty
    iteration body; it must run, and stop at max_steps exactly."""
    m = machine_at(tier, **HOT)
    load_asm(m, "f", "top:\nnop\njmp top\nret")
    with pytest.raises(CpuError, match="exceeded max_steps=500 at pc=0x"):
        m.call("f", max_steps=500)
    if tier == 2:
        assert m.jit.stats()["trace_iterations"] > 0


# ------------------------------------------------------ calls in hot loops
#: Hot loops whose iterations call guest helpers, by what a trace that
#: inlines the calls must get right.  Each counts r15 down from 40, and
#: the changing ones change once r15 reaches 20; the helpers sit after
#: the loop, so a return into it is a back-edge too.
CALL_LOOPS = {
    # a guard inside the callee fails: the exit pushes the open frame
    "branch flips inside callee": """
        mov r15, 40
        mov rax, 0
    top:
        call step
        sub r15, 1
        jne top
        ret
    step:
        cmp r15, 20
        jl late
        add rax, 3
        ret
    late:
        add rax, r15
        ret
    """,
    # the call guard fails, then a second version for the new target
    "indirect target switches": """
        mov r15, 40
        mov rax, 0
        mov r8, one
    top:
        cmp r15, 20
        jne keep
        mov r8, five
    keep:
        calli r8
        sub r15, 1
        jne top
        ret
    one:
        add rax, 1
        ret
    five:
        add rax, 5
        ret
    """,
    # one helper inlined twice, returning to two different sites
    "helper called from two sites": """
        mov r15, 40
        mov rax, 0
    top:
        mov rsi, r15
        call twice
        mov rsi, 7
        call twice
        sub r15, 1
        jne top
        ret
    twice:
        add rax, rsi
        imul rax, 3
        ret
    """,
    # a guard two calls deep: the exit pushes both frames
    "nested calls": """
        mov r15, 40
        mov rax, 0
    top:
        call outer
        sub r15, 1
        jne top
        ret
    outer:
        add rax, 1
        call inner
        add rax, 2
        ret
    inner:
        imul rax, 3
        cmp r15, 20
        jne inner_done
        add rax, 100
    inner_done:
        ret
    """,
    # the callee overwrites its return slot once (branch-free, so the
    # store is on the trace): the return guard exits to the new address
    "callee rewrites its return slot": """
        mov r15, 40
        mov rax, 0
    top:
        call bump
    back:
        sub r15, 1
        jne top
        ret
    bump:
        add rax, 1
        mov rcx, detour
        mov rdx, back
        sub rcx, rdx
        cmp r15, 20
        sete rsi
        imul rcx, rsi
        add rcx, rdx
        mov [rsp], rcx
        ret
    detour:
        add rax, 1000
        jmp back
    """,
    # the callee's store hits its own code once (branch-free again): the
    # code-write exit leaves inside the callee
    "callee stores into its own code": """
        mov r15, 40
        mov rax, 0
        mov r9, rdi
    top:
        call patcher
        sub r15, 1
        jne top
        ret
    patcher:
        add rax, 1
        mov rcx, patched
        sub rcx, r9
        cmp r15, 20
        sete rsi
        imul rcx, rsi
        add rcx, r9
        mov rdx, [rcx]
        mov [rcx], rdx
    patched:
        ret
    """,
}

#: ``top: calli r8 ... jne top`` with r8 switching mid-loop.  The
#: helpers sit before the loop, so the only back-edge is ``jne top`` and
#: the trace's head is the call itself: once r8 changes, the installed
#: trace exits before its first instruction.
HEAD_CALL_LOOP = """
        jmp start
    one:
        add rax, 1
        ret
    five:
        add rax, 5
        ret
    start:
        mov r15, 40
        mov rax, 0
        mov r8, one
    top:
        calli r8
        cmp r15, 20
        jne next
        mov r8, five
    next:
        sub r15, 1
        jne top
        ret
"""


def call_loop_stats(src: str) -> dict:
    """Run ``src`` twice on a fresh machine per tier and assert equal
    fingerprints; returns the trace tier's stats, which must show
    iterations run inside traces."""
    fps = []
    for tier in (0, 1, 2):
        m = machine_at(tier, **HOT)
        fn = load_asm(m, "f", src)
        buf = m.image.malloc(BUF_QWORDS * 8)
        fps.append([run_fingerprint(m, fn, buf) for _ in range(2)])
    stats = m.jit.stats()
    assert stats["trace_iterations"] > 0, stats
    assert stats["interp_fallbacks"] == 0, stats
    assert fps[0] == fps[1] == fps[2]
    return stats


@pytest.mark.parametrize("case", sorted(CALL_LOOPS))
def test_calls_in_hot_loops_match_across_tiers(case):
    stats = call_loop_stats(CALL_LOOPS[case])
    if case == "indirect target switches":
        assert stats["trace_compiles"] >= 2, stats


def test_call_at_the_head_with_a_switching_target_terminates():
    """Re-entering a trace that makes no progress would spin forever,
    so the loop runs in a daemon thread: a hang fails the test."""
    outcome = []

    def run():
        try:
            outcome.append(call_loop_stats(HEAD_CALL_LOOP))
        except BaseException as exc:  # re-raised in the test's thread
            outcome.append(exc)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(60)
    assert not worker.is_alive(), "the dispatch loop did not terminate"
    if isinstance(outcome[0], BaseException):
        raise outcome[0]
    assert outcome[0]["trace_deactivations"] > 0, outcome[0]


# ------------------------------------------------------------ models
def model_runs(tier: int) -> tuple:
    """The generic Sec. V sweep (``apply`` called through a pointer)
    and the generic PGAS reduction (``ga_get`` per element, remote
    surcharges) on fresh labs at ``tier``: their fingerprints, the
    matrix the sweep wrote, and the labs' JIT stats."""
    stencil, pgas = StencilLab(24, 24), PgasLab(256, 4)
    for lab in (stencil, pgas):
        if tier:
            lab.machine.enable_jit(trace=tier == 2)
    sweep = result_fingerprint(stencil.run_generic(iters=2))
    matrix = stencil.machine.image.peek(stencil.final_matrix, 24 * 24 * 8)
    total = result_fingerprint(pgas.sum_generic(0, 256))
    stats = [lab.machine.jit.stats() for lab in (stencil, pgas) if tier]
    return (sweep, matrix, total), stats


def test_call_heavy_model_kernels_match_across_tiers():
    (t0, _), (t1, t1_stats), (t2, t2_stats) = map(model_runs, (0, 1, 2))
    assert t0 == t1 == t2
    assert all(s["interp_fallbacks"] == 0 for s in t1_stats + t2_stats)
    assert all(s["trace_iterations"] > 0 for s in t2_stats), t2_stats


# ------------------------------------------------------------ generators
def _mem(lo: int, hi: int, width: int = 8):
    """A memory operand covering ``width`` bytes inside buffer bytes
    ``[lo, hi)``, either plain or through the fixed index register
    (r13 == 2, so +16 bytes)."""
    top = hi - width
    return st.one_of(
        st.integers(lo // 8, top // 8).map(lambda q: f"[r14 + {q * 8}]"),
        st.integers(lo // 8, (top - 16) // 8).map(
            lambda q: f"[r14 + r13*8 + {q * 8}]"),
    )


_int_mem = _mem(FP_BYTES, BUF_QWORDS * 8)
_fp_load = _mem(0, BUF_QWORDS * 8)
_fp_store = _mem(0, FP_BYTES)
_pk_load = _mem(0, BUF_QWORDS * 8, 16)
_pk_store = _mem(0, FP_BYTES, 16)

#: Integer values at the flag boundaries (zero, sign bit, carry), so
#: equal operands and zero or sign-flipping results are common.
_EDGES = (0, 1, 2, 7, 8, 63, (1 << 63) - 1, 1 << 63, (1 << 63) + 1,
          (1 << 64) - 2, (1 << 64) - 1)

_reg = st.sampled_from(GPRS)
_xmm = st.sampled_from(XMMS)
_cond = st.sampled_from(CONDS)
_imm = st.one_of(st.sampled_from(_EDGES), st.integers(-300, 300),
                 st.integers(-(1 << 63), (1 << 64) - 1)).map(str)
_int_src = st.one_of(_reg, _imm, _int_mem)
_int_dst = st.one_of(_reg, _int_mem)
#: Compare operands may also read the loop counter (r15) and the fixed
#: index (r13), and small immediates meet the counter, so a branch on
#: them flips direction mid-loop.
_cmp_src = st.one_of(_int_src, st.sampled_from(("r13", "r15")),
                     st.integers(0, ITERS).map(str))
_flt_src = st.one_of(_xmm, _fp_load)
_pk_src = st.one_of(_xmm, _pk_load)


def _op(name_st, *operand_sts):
    """One instruction line from an opcode strategy and operand
    strategies."""
    return st.builds(
        lambda name, *ops: [f"{name} {', '.join(ops)}"],
        name_st, *operand_sts)


def _lea(dst, base, index, scale, disp):
    sign = "-" if disp < 0 else "+"
    return [f"lea {dst}, [{base} + {index}*{scale} {sign} {abs(disp)}]"]


_any_gpr = st.sampled_from(GPRS + ("r13", "r14", "r15", "rsp"))

#: Instruction class -> generator of single-instruction lines.  The keys
#: must be exactly the classes the block compiler translates in a block
#: body (checked below).
SIMPLE = {
    OpClass.MOV: st.one_of(_op(st.just("mov"), _reg, _int_src),
                           _op(st.just("mov"), _int_mem, _int_src)),
    OpClass.LEA: st.builds(_lea, _reg, _any_gpr, _any_gpr,
                           st.sampled_from((1, 2, 4, 8)),
                           st.integers(-64, 64)),
    OpClass.ALU: st.one_of(
        _op(st.sampled_from(("add", "sub", "and", "or", "xor")),
            _int_dst, _int_src),
        _op(st.sampled_from(("neg", "not", "inc", "dec")), _int_dst)),
    OpClass.MUL: _op(st.just("imul"), _int_dst, _int_src),
    OpClass.SHIFT: _op(st.sampled_from(("shl", "shr", "sar")), _int_dst,
                       st.one_of(_reg, _int_mem,
                                 st.integers(0, 70).map(str))),
    OpClass.CMP: st.one_of(
        _op(st.sampled_from(("cmp", "test")), _cmp_src, _cmp_src),
        st.builds(lambda op, x: [f"{op} {x}, {x}"],
                  st.sampled_from(("cmp", "test")), _cmp_src)),
    OpClass.SETCC: st.builds(lambda c, d: [f"set{c} {d}"], _cond, _int_dst),
    OpClass.FMOV: st.one_of(_op(st.just("movsd"), _xmm, _flt_src),
                            _op(st.just("movsd"), _fp_store, _xmm),
                            st.builds(lambda x: [f"xorpd {x}, {x}"], _xmm)),
    OpClass.FALU: _op(st.sampled_from(("addsd", "subsd", "mulsd")),
                      _xmm, _flt_src),
    OpClass.FDIV: _op(st.sampled_from(("divsd", "sqrtsd")), _xmm, _flt_src),
    OpClass.FCMP: _op(st.just("ucomisd"), _xmm, _flt_src),
    OpClass.FCVT: st.one_of(_op(st.just("cvtsi2sd"), _xmm,
                                st.one_of(_reg, _int_mem)),
                            _op(st.just("cvttsd2si"), _reg, _flt_src)),
    OpClass.BITMOV: _op(st.just("movq"), _xmm, _reg),
    OpClass.VMOV: st.one_of(_op(st.just("movupd"), _xmm, _pk_src),
                            _op(st.just("movupd"), _pk_store, _xmm)),
    OpClass.VALU: _op(st.sampled_from(("addpd", "subpd", "mulpd", "haddpd")),
                      _xmm, _pk_src),
    OpClass.NOP: st.just(["nop"]),
}
_simple = st.one_of(*SIMPLE.values())

#: Loads from, a read-modify-write of, and stores into the read-only
#: cells.
_RODATA_ITEM = st.one_of(
    st.builds(lambda line, r: [line.format(r)], st.sampled_from((
        f"mov {{}}, [{RO_INT}]", f"add {{}}, [{RO_INT}]",
        f"add [{RO_INT}], {{}}", f"mov [{RO_INT}], {{}}")), _reg),
    st.builds(lambda line, x: [line.format(x)], st.sampled_from((
        f"movsd {{}}, [{RO_FP}]", f"mulsd {{}}, [{RO_FP}]",
        f"movsd [{RO_FP}], {{}}")), _xmm))


def _pushpop(src, middle, dst):
    return [f"push {src}", *middle, f"pop {dst}"]


def _divide(dividend, divisor, slot):
    """Signed division of a fresh dividend by a nonzero immediate,
    through a register or a buffer slot."""
    if slot is None:
        slot = "r12"
    return [f"mov rax, {dividend}", f"mov {slot}, {divisor}", f"idiv {slot}"]


#: Items that need more than one instruction to stay non-faulting or to
#: pair a flag writer with a reader.  ``("jcc", cond, lines)`` is a
#: forward branch over ``lines``, labelled when the body is rendered.
_reader = st.one_of(
    SIMPLE[OpClass.SETCC],
    st.builds(lambda c, inner: [("jcc", c, inner)], _cond, _simple))

#: Stack slots below ``rsp`` (never the return address a helper's
#: ``ret`` pops), and how far a misaligned access sits from one.
_slot = st.integers(2, 8).map(lambda q: 8 * q)
_off = st.sampled_from((4, -4))


def _spill(c, src, middle, dst):
    return [f"mov [rsp - {c}], {src}", *middle, f"mov {dst}, [rsp - {c}]"]


def _aliased(c, d, src, copy, value, dst):
    return [f"mov [rsp - {c}], {src}", f"mov {copy}, rsp",
            f"mov [{copy} - {c + d}], {value}", f"mov {dst}, [rsp - {c}]"]


def _moved(c, d, how, src, copy, dst, other):
    """Spill, move ``rsp`` down by ``d``, reload the slot (now at
    ``rsp + d - c``) and the bytes at ``rsp - c``, and move it back.
    ``sub``/``lea rsp, [rsp - d]`` keep the tracked anchor, ``lea`` from
    a copy of ``rsp`` starts a new one."""
    down = {"sub": [f"sub rsp, {d}"], "lea": [f"lea rsp, [rsp - {d}]"],
            "copy": [f"mov {copy}, rsp", f"lea rsp, [{copy} - {d}]"]}[how]
    back = d - c
    return [f"mov [rsp - {c}], {src}", *down,
            f"mov {dst}, [rsp {'-' if back < 0 else '+'} {abs(back)}]",
            f"mov {other}, [rsp - {c}]", f"add rsp, {d}"]


#: Spills to and reloads from stack slots, by what the trace tier's
#: forwarding of a stored value to a later load of its slot must get
#: right: the plain case, a store through a copy of ``rsp`` onto the
#: slot (or 4 bytes beside it) before the reload, a store through
#: ``rsp`` that half-overlaps the slot, an integer spill reloaded as a
#: double, a reload 4 bytes off the slot, and ``rsp`` moving between
#: spill and reload.  Only integers are spilled, so no NaN bits reach
#: integer state.
STACK = {
    "spill and reload": st.builds(_spill, _slot, _reg,
                                  st.one_of(st.just([]), _simple), _reg),
    "store through a copy of rsp": st.builds(
        _aliased, _slot, st.sampled_from((0, 4, -4)), _reg, _reg,
        _int_src, _reg),
    "overlapping store": st.builds(
        lambda c, d, src, value, dst: _spill(
            c, src, [f"mov [rsp - {c + d}], {value}"], dst),
        _slot, _off, _reg, _int_src, _reg),
    "integer spill, double reload": st.builds(
        lambda c, src, x: [f"mov [rsp - {c}], {src}",
                           f"movsd {x}, [rsp - {c}]"], _slot, _reg, _xmm),
    "reload 4 bytes off": st.builds(
        lambda c, d, src, dst: [f"mov [rsp - {c}], {src}",
                                f"mov {dst}, [rsp - {c + d}]"],
        _slot, _off, _reg, _reg),
    "rsp moved between spill and reload": st.builds(
        _moved, _slot, _slot, st.sampled_from(("sub", "lea", "copy")),
        _reg, _reg, _reg, _reg),
}
_PLAIN_ITEM = st.one_of(
    _simple,
    st.builds(lambda w, r: w + r,
              st.one_of(SIMPLE[OpClass.CMP], SIMPLE[OpClass.FCMP],
                        SIMPLE[OpClass.ALU]), _reader),
    st.builds(_pushpop, _int_src, st.one_of(st.just([]), _simple),
              _int_dst),
    st.builds(_divide, _int_src,
              st.one_of(st.integers(1, 9), st.integers(-9, -1),
                        st.integers(1, 1 << 40), st.integers(-(1 << 40), -1)),
              st.one_of(st.none(), _int_mem)),
    *STACK.values(),
)
#: ``("call", via, items)`` runs ``items`` inside a helper reached by
#: ``call`` or by ``calli`` through r12, rendered after the function.
_ITEM = st.one_of(
    _PLAIN_ITEM,
    st.builds(lambda via, inner: [("call", via, inner)],
              st.sampled_from(("call", "calli")),
              st.lists(_PLAIN_ITEM, min_size=1, max_size=3)),
)


def _render_items(items, tag, helpers) -> list:
    """Body lines for ``items``; helper bodies go to ``helpers``.
    ``tag`` keeps the labels of a helper's items apart from the
    caller's."""
    lines = []
    for n, item in enumerate(items):
        for line in item:
            if isinstance(line, str):
                lines.append(line)
            elif line[0] == "jcc":
                _, cond, inner = line
                lines += [f"j{cond} skip{tag}{n}", *inner, f"skip{tag}{n}:"]
            else:
                _, via, inner = line
                name = f"helper{tag}{n}"
                lines += ([f"call {name}"] if via == "call"
                          else [f"mov r12, {name}", "calli r12"])
                body = _render_items(inner, f"{tag}{n}_", helpers)
                helpers += [f"{name}:", *body, "ret"]
    return lines


def render_loop(items) -> str:
    """The guest function: set up the buffer, index and counter, seed
    the xmm registers from the FP half and the GPRs from the integer
    half, then run the body ITERS times."""
    lines = ["mov r14, rdi", "mov r13, 2", f"mov r15, {ITERS}"]
    lines += [f"movupd {x}, [r14 + {16 * i}]" for i, x in enumerate(XMMS)]
    lines += [f"mov {r}, [r14 + {FP_BYTES + 8 * i}]"
              for i, r in enumerate(GPRS)]
    lines.append("top:")
    helpers = []
    lines += _render_items(items, "", helpers)
    lines += ["sub r15, 1", "jne top", "ret", *helpers]
    return "\n".join(lines)


_qword = st.one_of(
    st.sampled_from(_EDGES),
    st.integers(0, (1 << 64) - 1),
    st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0, math.inf, -math.inf,
                               math.nan)),
              st.floats(-1e3, 1e3)).map(
        lambda f: struct.unpack("<Q", struct.pack("<d", f))[0]))


def test_generators_cover_every_body_class():
    body_classes = set(OpClass) - _BLOCK_ENDERS - {OpClass.JCC}
    assert set(SIMPLE) | {OpClass.PUSH, OpClass.POP, OpClass.DIV} == (
        body_classes)
    # every stack shape the trace tier forwards, or must not forward
    assert set(STACK) == {"spill and reload", "store through a copy of rsp",
                          "overlapping store", "integer spill, double reload",
                          "reload 4 bytes off",
                          "rsp moved between spill and reload"}


@pytest.fixture(scope="module")
def tier_machines():
    """One machine per tier, shared by the cases: each case loads its
    own function and buffer, and every call starts from reset registers
    and flags.  The read-only cells carry over from case to case, the
    same on every tier."""
    machines = [machine_at(tier, **HOT) for tier in (0, 1, 2)]
    for m in machines:
        add_ro_cells(m)
    return machines


def assert_tiers_agree(machines, items, init) -> None:
    """Run the loop over ``items`` twice on every tier (the second call
    starts with the trace installed) and compare the fingerprints."""
    src = render_loop(items)
    traced = machines[2].jit
    entries = traced.stats()["trace_entries"]
    fps = []
    for m in machines:
        fn = load_asm(m, f"body{len(m.image.symbols)}", src)
        buf = m.image.malloc(BUF_QWORDS * 8)
        m.image.poke(buf, struct.pack(f"<{BUF_QWORDS}Q", *init))
        fps.append([run_fingerprint(m, fn, buf) for _ in range(2)])
    stats = traced.stats()
    assert stats["trace_entries"] > entries, (src, stats)
    assert stats["interp_fallbacks"] == 0, (src, stats)
    assert fps[0] == fps[1], src
    assert fps[0] == fps[2], src


#: Compares whose outcome changes as rax = r15 - 6 (and xmm0 = rax as a
#: double) runs from 6 down to -5: equal, above and below, signed and
#: unsigned orders that differ, a signed overflow (against -2**63), zero
#: and negative TEST results, a TEST result of exactly the sign bit, and
#: float compares against 2.0 (xmm1) and NaN (xmm2, unordered).  The
#: ADD and SUB, whose flags the trace tier defers like a CMP's, cross
#: zero, carry, and (against 2**63 - 1) signed overflow.
COMPARES = ("cmp rax, 2", "cmp rax, 9223372036854775808", "test rax, rax",
            "test rax, 9223372036854775808", "ucomisd xmm0, xmm1",
            "ucomisd xmm0, xmm2", "add rax, 2", "add rax, 9223372036854775807",
            "sub rax, 2")
_SWEEP_INIT = [0] * BUF_QWORDS
_SWEEP_INIT[2] = struct.unpack("<Q", struct.pack("<d", 2.0))[0]
_SWEEP_INIT[4] = struct.unpack("<Q", struct.pack("<d", math.nan))[0]

#: Reads ZF, CF, SF and SF != OF after the reader, into per-flag bit
#: histories (LEA writes no flags), so the flags a guard's side exit
#: writes back are observed as well.
FLAG_SNAPSHOT = ("sete r8", "setb r9", "sets r10", "setl r11",
                 "lea rsi, [rsi*2 + r8]", "lea rdi, [rdi*2 + r9]",
                 "lea rbp, [rbp*2 + r10]", "lea r12, [r12*2 + r11]")


@pytest.mark.parametrize("reader", ["jcc", "setcc"])
@pytest.mark.parametrize("compare", COMPARES)
@pytest.mark.parametrize("cond", CONDS)
def test_every_condition_after_compare(tier_machines, cond, compare, reader):
    if reader == "jcc":
        read = [("jcc", cond, ["add rbx, 1"])]
    else:
        read = [f"set{cond} rdx", "lea rbx, [rbx*2 + rdx]"]
    body = [["mov rax, r15", "sub rax, 6", "cvtsi2sd xmm0, rax", compare,
             *read, *FLAG_SNAPSHOT]]
    assert_tiers_agree(tier_machines, body, _SWEEP_INIT)


# No shrink phase: a failure's message carries its whole guest source,
# and shrinking one through three machines per step takes many minutes.
@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate))
@given(items=st.lists(st.one_of(_ITEM, _RODATA_ITEM), min_size=2,
                     max_size=12),
       init=st.lists(_qword, min_size=BUF_QWORDS, max_size=BUF_QWORDS))
def test_random_loop_bodies_match_across_tiers(tier_machines, items, init):
    assert_tiers_agree(tier_machines, items, init)


# ----------------------------------------------------------- write journal
#: Every journaled run stores into these segments (the buffer is on the
#: heap); a remote segment is mapped at ``REMOTE``.
JOURNALED = {"heap", "data", "stack", "remote0"}
REMOTE = 0x1_0000_0000


def journal_machine(tier: int) -> Machine:
    m = machine_at(tier, **HOT)
    add_ro_cells(m)
    m.image.map_remote_node(0, 0x1000, 40)
    return m


def stores_into_rodata(items) -> bool:
    """Whether a body stores into a read-only cell: a store drawn from
    ``_RODATA_ITEM`` names the cell as its first operand."""
    return any(isinstance(line, str) and line.partition(" ")[2].startswith(
        (f"[{RO_INT}]", f"[{RO_FP}]")) for item in items for line in item)


def full_copy(machine: Machine) -> list:
    return [(seg.name, bytes(seg.data)) for seg in machine.memory.segments]


def contents(machine: Machine) -> list:
    """Every segment's live bytes, comparable with a :func:`full_copy`."""
    return [(seg.name, seg.data) for seg in machine.memory.segments]


def run_journaled(machine: Machine, run) -> tuple:
    """``run()`` under an open write journal, then rolled back.  The
    rollback must restore every segment byte for byte.  Returns
    ``(run's result or exception, journaled segment names)``."""
    memory = machine.memory
    before = full_copy(machine)
    memory.open_journal()
    try:
        try:
            outcome = run()
        except CpuError as exc:
            outcome = exc
        written = set(memory.journal)
        memory.rollback()
    finally:
        memory.close_journal()
    assert contents(machine) == before
    return outcome, written


@pytest.fixture(scope="module")
def journal_machines():
    return [journal_machine(tier) for tier in (0, 1, 2)]


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate))
@given(items=st.lists(st.one_of(_ITEM, _RODATA_ITEM), min_size=2,
                     max_size=8),
       init=st.lists(_qword, min_size=BUF_QWORDS, max_size=BUF_QWORDS))
def test_journaled_rollback_is_exact_across_tiers(journal_machines, items,
                                                  init):
    """A warm-up run installs the trace; the journaled run must match a
    plain re-run from the same state on every tier, and its rollback
    must be exact."""
    data = journal_machines[0].image.add_data(None, bytes(8))
    stores = [f"mov [r14 + {BUF_QWORDS * 8 - 8}], r15", f"mov [{data}], r15",
              f"mov r12, {REMOTE}", "mov [r12], rax", "push r15", "pop r12"]
    src = render_loop(items + [stores])
    expect = JOURNALED | ({"rodata"} if stores_into_rodata(items) else set())
    traced = journal_machines[2].jit
    fps = []
    for m in journal_machines:
        if m is not journal_machines[0]:
            assert m.image.add_data(None, bytes(8)) == data
        fn = load_asm(m, f"body{len(m.image.symbols)}", src)
        buf = m.image.malloc(BUF_QWORDS * 8)
        m.image.poke(buf, struct.pack(f"<{BUF_QWORDS}Q", *init))
        warm = run_fingerprint(m, fn, buf)
        entries = traced.stats()["trace_entries"]
        journaled, written = run_journaled(
            m, lambda: run_fingerprint(m, fn, buf))
        assert written == expect, src
        if m is journal_machines[2]:
            assert traced.stats()["trace_entries"] > entries, src
        assert run_fingerprint(m, fn, buf) == journaled, src
        fps.append([warm, journaled])
    assert fps[0] == fps[1] == fps[2], src


#: Writes heap and stack in a hot loop, calls ``host`` (which writes the
#: data and remote segments first, then the heap), then reads back what
#: the host wrote in a second hot loop that also stores to the remote
#: segment.
HOST_WRITES = f"""
        mov r14, rdi
        mov r15, 12
    first:
        mov [r14 + 8], r15
        push r15
        pop rbx
        sub r15, 1
        jne first
        call host
        mov r15, 12
        mov r12, {REMOTE}
    second:
        mov rax, [r12]
        add rax, [r14 + 24]
        add rax, r15
        mov [r12 + 8], rax
        mov [r14 + 16], rax
        sub r15, 1
        jne second
        ret
"""

#: Stores into every journaled segment each iteration, then divides by
#: ``r15 - rsi``: the warm-up (rsi = 100) never faults, the journaled
#: run (rsi = 5) faults in its eighth iteration.
DIVIDES = f"""
        mov r14, rdi
        mov r13, rdx
        mov r15, 12
    top:
        mov [r14 + 8], r15
        mov [r14 + 16], rax
        mov r12, {REMOTE}
        mov [r12], r15
        push r15
        pop rbx
        mov [r13], rbx
        mov rcx, r15
        sub rcx, rsi
        mov rax, 1000
        idiv rcx
        sub r15, 1
        jne top
        ret
"""


@pytest.mark.parametrize("case", ["host writes mid-run", "fault mid-run"])
def test_journaled_rollback_survives_host_writes_and_faults(case):
    outcomes = []
    for tier in (0, 1, 2):
        m = journal_machine(tier)
        buf = m.image.malloc(BUF_QWORDS * 8)
        data = m.image.add_data(None, bytes(8))
        if case == "host writes mid-run":
            def host(cpu, m=m, data=data, buf=buf):
                m.image.poke(data, struct.pack("<Q", 5))
                m.memory.write_bytes(REMOTE, struct.pack("<Q", 7))
                m.image.poke(buf + 24, struct.pack("<Q", 9))

            m.register_host_function("host", host)
            fn = load_asm(m, "f", HOST_WRITES)
            m.call(fn, buf)
            outcome, written = run_journaled(m, lambda: m.call(fn, buf))
            outcomes.append((outcome.uint_return, outcome.steps,
                             outcome.perf.as_dict()))
        else:
            fn = load_asm(m, "f", DIVIDES)
            m.call(fn, buf, 100, data)
            outcome, written = run_journaled(
                m, lambda: m.call(fn, buf, 5, data))
            assert isinstance(outcome, CpuError), outcome
            outcomes.append(str(outcome))
        assert written == JOURNALED, written
        if tier == 2:
            assert m.jit.stats()["trace_entries"] > 0
    assert outcomes[0] == outcomes[1] == outcomes[2]


#: Stores ``rdi`` into the read-only int cell in a hot loop and sums
#: what it reads back from there.
RODATA_STORE = f"""
        mov r15, 12
    top:
        mov [{RO_INT}], rdi
        add rax, [{RO_INT}]
        sub r15, 1
        jne top
        ret
"""


@pytest.mark.parametrize("tier", (0, 1, 2))
def test_rollback_undoes_a_guest_store_into_rodata(tier):
    """Guest stores are not permission-checked, so a run can write a
    read-only segment; its rollback must restore the cell's pre-image."""
    m = journal_machine(tier)
    fn = load_asm(m, "f", RODATA_STORE)
    assert m.call(fn, 1).uint_return == 12  # warm-up: installs the trace
    entries = m.jit.stats()["trace_entries"] if tier == 2 else 0
    outcome, written = run_journaled(m, lambda: m.call(fn, 7))
    assert outcome.uint_return == 84
    assert "rodata" in written
    assert m.memory.read_u64(RO_INT) == 1
    if tier == 2:
        assert m.jit.stats()["trace_entries"] > entries
