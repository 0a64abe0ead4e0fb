"""Tier-1 execution: basic blocks compiled to single Python closures.

The interpreter (:meth:`repro.machine.cpu.CPU._interp_loop`, "tier 0")
re-fetches, re-classifies, and re-dispatches every instruction through a
Python if-chain on every step.  This module adds "tier 1": each basic
block of guest code is translated *once* into one Python function whose
body is the whole block with

* operand accessors pre-resolved (``regs[3]`` instead of ``read_int``
  type-switching, effective addresses folded to expressions),
* ``op_info``/``OpClass`` lookups hoisted to compile time (the generated
  code contains no dispatch at all),
* the per-block cycle cost precomputed as one constant (plus a
  taken/not-taken delta for conditional-branch blocks),
* straight-line MOV/ALU/CMP runs fused into one superinstruction body —
  dead condition-flag updates (overwritten before any SETcc/Jcc and
  before the block ends) are elided entirely,
* memory accesses inlined against the segment TLB with the same
  counters and remote-segment surcharges the interpreter charges.

The translators reach guest state only through a small state-access
interface on :class:`_BlockCompiler` — ``reg``, ``lane`` and ``flag``
name a GPR, an xmm lane or a condition flag; ``signed`` is the signed
view of a value; ``divide`` is signed division.  Tier 1 implements it
with the cpu's list and dict slots and the ``ts``/``IDIV`` helpers; the
tier-2 trace compiler (:mod:`.tracejit`) implements it with Python
locals and inline arithmetic, so one set of translators serves both.

Compiled blocks live in a **code cache** keyed by start address and are
chained: once block A has fallen through or jumped to block B, A
remembers B and the dispatch loop follows the link without a cache
lookup.  That loop (:meth:`BlockJIT.loop`) is the only one of both
tiers: the tier-2 trace JIT (:mod:`.tracejit`) adds its back-edge
profile and trace entries to it, and tier 1 pays only a flag test per
block and a threshold test per backward transition for them.
Architectural results (registers, memory, ``perf`` counters, return
values) are bit-for-bit identical to the interpreter on every run that
completes without a fault; EXT-10 and
``tests/machine/test_tier_parity.py`` assert this.

Invalidation contract
---------------------

Stale translations must never execute.  One path invalidates the cache:
every write of executable bytes — :meth:`Image.poke` (rewriter
emissions, guard stubs, persistence restores, in-place patches),
:meth:`Image.reserve_rewrite`, and guest stores into code — calls
:meth:`Image.notify_code_write`, whose listener
:meth:`BlockJIT.invalidate_range` drops exactly the blocks overlapping
the written range.  Code elsewhere stays compiled: the rewriter emits
each new variant past the live ones, and withdrawing a variant changes
which entry callers use, not the bytes of any block.  The one reuse of
an address is a deduplicated body's span, given back to the allocator
(:meth:`Image.free_rewrite`): the next emission writes over it, and that
write drops the blocks compiled there.

Blocks take their instructions from the image's decode cache
(:meth:`Image.fetch`), and the trace former reads the instructions each
cached block holds; both tiers take their ``compile()`` output from one
bounded memo (:meth:`BlockJIT._code`), so code rebuilt from unchanged
bytes costs a translation but no decode and no Python compile.  Bytes
outside executable segments are never compiled: their writes fire no
code listener, so each visit runs one freshly decoded interpreted step.

Every invalidation bumps a generation counter and clears all chain
links, which also resets the edge profile the trace former walks; the
dispatch loop re-checks the generation after any block that can run
host code, so a host-triggered rewrite takes effect before the next
guest instruction.

Divergence note: a fault (division by zero, segmentation fault) raised
*mid-block* surfaces as the same exception the interpreter raises, but
instruction/cycle counters may differ at that point because the block
batches them; all success paths are exact.  ``max_steps`` exhaustion is
exact: the loop hands the final instructions to the interpreter so the
fault fires on the same step with the same message.
"""

from __future__ import annotations

import math
import struct
from types import CodeType

from repro.isa.flags import Cond, Flag
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op, OpClass
from repro.isa.operands import FReg, Imm, Mem, Reg
from repro.isa.registers import GPR
from repro.isa import semantics as S
from repro.machine.cpu import CallFrameInfo, CPU, MASK64
from repro.machine.image import LAYOUT

SIGN_BIT = 1 << 63

#: Longest straight-line run compiled into one block; longer runs split
#: into chained fall-through blocks.
MAX_BLOCK_INSNS = 64

#: ``compile()`` outputs one JIT keeps for reuse (both tiers); the
#: oldest entry goes first when the memo is full.
MAX_CODE_MEMO = 512

#: Trace deactivation in the dispatch loop: after this many consecutive
#: side exits of an installed trace, ...
DEACT_MIN_EXITS = 8
#: ... each yielding fewer iterations than this.
DEACT_ITERS_PER_EXIT = 2

_RSP = int(GPR.RSP)
_RAX = int(GPR.RAX)
_RDX = int(GPR.RDX)

_SQ = struct.Struct("<Q")
_SD = struct.Struct("<d")

#: Opclasses that end a basic block.  CALL is included (it is not a
#: TERMINATOR for the tracer) because host functions run arbitrary
#: Python — including rewrites that invalidate this very cache.
_BLOCK_ENDERS = frozenset(
    (OpClass.JMP, OpClass.JCC, OpClass.CALL, OpClass.RET, OpClass.HLT)
)


def _xorpd(a0: float, a1: float, b0: float, b1: float):
    """The ``XPD`` helper: :func:`repro.isa.semantics.xorpd` on the
    four lanes the generated code passes."""
    return S.xorpd((a0, a1), (b0, b1))


class _NoSeg:
    """TLB sentinel whose bounds check always misses, so a block
    replaces it before any access reads another segment field."""

    base = 1
    end = 0


_NOSEG = _NoSeg()


class _Unsupported(Exception):
    """Raised at codegen time for operand shapes the translator does not
    handle; the block falls back to a single interpreted step."""


#: Condition-code expressions over the four flags; each ``{ZF}``-style
#: field is filled with :meth:`_BlockCompiler.flag`'s name for it.
_COND_EXPR = {
    Cond.E: "{ZF}",
    Cond.NE: "not {ZF}",
    Cond.L: "{SF} != {OF}",
    Cond.GE: "{SF} == {OF}",
    Cond.LE: "{ZF} or {SF} != {OF}",
    Cond.G: "not {ZF} and {SF} == {OF}",
    Cond.B: "{CF}",
    Cond.AE: "not {CF}",
    Cond.BE: "{CF} or {ZF}",
    Cond.A: "not {CF} and not {ZF}",
    Cond.S: "{SF}",
    Cond.NS: "not {SF}",
}


class CompiledBlock:
    """One translated basic block: ``run(cpu)`` executes the whole block
    and returns (and sets) the next pc.

    ``links`` maps successor pc → ``[successor, follow_count]``.  The
    count is the number of times the dispatch loop took that edge via
    the chain (the first transition installs the link and counts as a
    cache hit instead), so the link table doubles as the edge-frequency
    profile the tier-2 trace former reads (:mod:`.tracejit`).  ``insns``
    are the decoded instructions the block was translated from; the
    trace former reads them instead of decoding the bytes again.
    """

    #: Class-level discriminator so the dispatch loop can tell a trace
    #: entry (:class:`repro.machine.tracejit.TraceEntry`) from a plain
    #: block without an isinstance check.
    is_trace = False

    __slots__ = ("addr", "end", "run", "insns", "n_insns", "links",
                 "source")

    def __init__(self, addr, end, run, insns, source=""):
        self.addr = addr
        self.end = end
        self.run = run
        self.insns = insns
        self.n_insns = len(insns)
        self.links: dict[int, list] = {}
        self.source = source


class _BlockCompiler:
    """Translates one decoded basic block into Python source; guest
    state is reached only through the state-access methods (see the
    module docstring), which the trace compiler re-implements."""

    def __init__(self, insns: list[Instruction], fall_pc: int, costs):
        self.insns = insns
        self.fall_pc = fall_pc  # pc after the last insn (fall-through)
        self._costs = costs
        self.lines: list[str] = []
        self.needs: set[str] = set()
        self.n_loads = 0
        self.n_stores = 0
        self._tmp_n = 0
        #: Number of inlined store sites emitted so far; :meth:`gen` uses
        #: the delta per instruction to place self-modification exits.
        self._store_sites = 0

    # ------------------------------------------------------------ emission
    def emit(self, line: str) -> None:
        self.lines.append("    " + line)

    def tmp(self) -> str:
        self._tmp_n += 1
        return f"_t{self._tmp_n}"

    # -------------------------------------------------------- state access
    def reg(self, n: int) -> str:
        """Expression naming GPR ``n``, readable and assignable."""
        return f"regs[{n}]"

    def lane(self, n: int, lane: int) -> str:
        """Expression naming lane ``lane`` of xmm register ``n``."""
        self.needs.add("xmm")
        return f"xmm[{n}][{lane}]"

    def flag(self, name: str) -> str:
        """Expression naming condition flag ``name`` (``"ZF"``...)."""
        self.needs.add("flags")
        return f"flags[{name}]"

    def signed(self, x: str) -> str:
        """Signed view of the canonical value ``x``."""
        return f"ts({x})"

    def divide(self, b: str) -> None:
        """Signed division RAX / ``b``: quotient to RAX, remainder to
        RDX, faulting on a zero divisor."""
        q, r = self.reg(_RAX), self.reg(_RDX)
        self.emit(f"{q}, {r} = IDIV({q}, {b})")

    def cond(self, cond: Cond) -> str:
        """Expression that is true when ``cond`` holds on the flags."""
        return _COND_EXPR[cond].format(
            ZF=self.flag("ZF"), SF=self.flag("SF"),
            CF=self.flag("CF"), OF=self.flag("OF"))

    # ------------------------------------------------------------ operands
    def ea(self, mem: Mem) -> str:
        """Expression for a memory operand's effective address (canonical
        unsigned, exactly like :meth:`CPU.ea`)."""
        parts = []
        if mem.base is not None:
            parts.append(self.reg(int(mem.base)))
        if mem.index is not None:
            term = self.reg(int(mem.index))
            if mem.scale != 1:
                term += f"*{mem.scale}"
            parts.append(term)
        if not parts:
            return repr(mem.disp & MASK64)
        if mem.disp:
            parts.append(repr(mem.disp))
        if len(parts) == 1 and mem.base is not None:
            return parts[0]  # a bare register is already canonical
        return f"(({'+'.join(parts)})&M)"

    def load(self, ea_expr: str, var: str, fmt: str = "Q",
             count_inline: bool = False) -> str:
        """Inline an 8-byte load (same counters/surcharges as
        :meth:`CPU.load_u64`); returns the address temp for reuse."""
        t = self.tmp()
        e = self.emit
        e(f"{t} = {ea_expr}")
        e(f"if not (seg_.base <= {t} and {t} + 8 <= seg_.end):")
        e(f"    seg_ = segfor({t}, 8); cpu._seg_cache = seg_")
        e("_x = seg_.extra_cost")
        e("if _x:")
        e("    perf.cycles += _x; perf.remote_cycles += _x; "
          "perf.remote_accesses += 1")
        fn = "UQF" if fmt == "Q" else "UDF"
        e(f"{var} = {fn}(seg_.data, {t} - seg_.base)[0]")
        if count_inline:
            e("perf.loads += 1")
        else:
            self.n_loads += 1
        self.needs.add("mem")
        return t

    def store(self, ea_expr: str, value_expr: str, fmt: str = "Q",
              count_inline: bool = False) -> None:
        """Inline an 8-byte store (same counters/surcharges as
        :meth:`CPU.store_u64`); ``value_expr`` must be canonical for Q."""
        t = self.tmp()
        e = self.emit
        e(f"{t} = {ea_expr}")
        e(f"if not (seg_.base <= {t} and {t} + 8 <= seg_.end):")
        e(f"    seg_ = segfor({t}, 8); cpu._seg_cache = seg_")
        e("_x = seg_.extra_cost")
        e("if _x:")
        e("    perf.cycles += _x; perf.remote_cycles += _x; "
          "perf.remote_accesses += 1")
        fn = "PQI" if fmt == "Q" else "PDI"
        self._barriered_store(
            "seg_.watched and cpu.memory.before_write(seg_)",
            f"{fn}(seg_.data, {t} - seg_.base, {value_expr})", t,
            count_inline)

    def _barriered_store(self, slow: str, write: str, t: str,
                         count_inline: bool) -> None:
        """Emit ``write`` behind the write barrier.  ``slow`` tests the
        site's ``watched`` flag (the only test on the fast path), then
        runs :meth:`Memory.before_write`, which journals the segment's
        pre-image before the bytes change and is true for executable
        segments.  A store into executable bytes must invalidate
        decoded-code caches (including this JIT's own) and stop the
        block at the next instruction boundary — the bytes it compiled
        may be the ones just overwritten (see the ``cw_`` exit in
        :meth:`gen`)."""
        e = self.emit
        e(f"if {slow}:")
        e(f"    {write}")
        e(f"    cpu.image.notify_code_write({t}, 8)")
        e("    cw_ = True")
        e("else:")
        e(f"    {write}")
        self._store_sites += 1
        self.needs.add("cw")
        if count_inline:
            e("perf.stores += 1")
        else:
            self.n_stores += 1
        self.needs.add("mem")

    def read_int(self, operand) -> str:
        """Expression (or temp) holding an integer operand's canonical
        value; memory operands emit an inline load first."""
        if type(operand) is Reg:
            return self.reg(int(operand.reg))
        if type(operand) is Imm:
            return repr(operand.value)
        if type(operand) is Mem:
            v = self.tmp()
            self.load(self.ea(operand), v, "Q")
            return v
        raise _Unsupported(f"int operand {operand!r}")

    def write_int(self, operand, value_expr: str) -> None:
        """Store a canonical value into a register or memory operand."""
        if type(operand) is Reg:
            self.emit(f"{self.reg(int(operand.reg))} = {value_expr}")
        elif type(operand) is Mem:
            self.store(self.ea(operand), value_expr, "Q")
        else:
            raise _Unsupported(f"int destination {operand!r}")

    def read_float(self, operand) -> str:
        """Expression/temp holding a float source operand's value."""
        if type(operand) is FReg:
            return self.lane(int(operand.reg), 0)
        if type(operand) is Mem:
            v = self.tmp()
            self.load(self.ea(operand), v, "D")
            return v
        raise _Unsupported(f"float operand {operand!r}")

    def read_packed(self, operand) -> tuple[str, str]:
        """Expressions/temps for both 64-bit lanes of a packed operand."""
        if type(operand) is FReg:
            n = int(operand.reg)
            return self.lane(n, 0), self.lane(n, 1)
        if type(operand) is Mem:
            lo, hi = self.tmp(), self.tmp()
            at = self.load(self.ea(operand), lo, "D")
            self.load(f"{at} + 8", hi, "D")
            return lo, hi
        raise _Unsupported(f"packed operand {operand!r}")

    # --------------------------------------------------------------- flags
    def _flags_line(self, zf: str, sf: str, cf: str, of: str) -> str:
        return (f"{self.flag('ZF')} = {zf}; {self.flag('SF')} = {sf}; "
                f"{self.flag('CF')} = {cf}; {self.flag('OF')} = {of}")

    def set_flags(self, zf: str, sf: str, cf: str, of: str) -> None:
        self.emit(self._flags_line(zf, sf, cf, of))

    def logic_flags(self, r: str) -> None:
        self.set_flags(f"{r} == 0", f"{r} >= SB", "False", "False")

    # ---------------------------------------------------------- translate
    def gen(self) -> str:
        """Translate the whole block; returns the function source."""
        insns = self.insns
        need_flags = self._flag_liveness(insns)
        straight = insns[:-1] if self._has_ender() else insns
        for i, insn in enumerate(straight):
            sites_before = self._store_sites
            self.gen_insn(insn, need_flags[i])
            if self._store_sites > sites_before and i + 1 < len(insns):
                self._selfmod_exit(i, insn)
        if self._has_ender():
            self.gen_ender(insns[-1], need_flags[len(insns) - 1])
        else:
            self.epilogue(self._base_cost(insns), repr(self.fall_pc))
        return self.render()

    def _selfmod_exit(self, i: int, insn: Instruction) -> None:
        """Leave the block right after instruction ``i`` if it stored
        into executable bytes: the remaining compiled instructions may be
        the ones just overwritten, and the interpreter (which refetches
        every step) would already see the new bytes.  Charges exactly the
        counters accrued so far, so an exited block is bit-for-bit
        equivalent to interpreting its executed prefix."""
        e = self.emit
        next_pc = (insn.addr or 0) + (insn.size or 0)
        e("if cw_:")
        e(f"    perf.instructions += {i + 1}")
        if self.n_loads:
            e(f"    perf.loads += {self.n_loads}")
        if self.n_stores:
            e(f"    perf.stores += {self.n_stores}")
        e(f"    perf.cycles += {self._base_cost(self.insns[:i + 1])}")
        e(f"    cpu._ran_partial = {i + 1}")
        e(f"    cpu.pc = {next_pc}")
        e(f"    return {next_pc}")

    def _has_ender(self) -> bool:
        return self.insns[-1].info.opclass in _BLOCK_ENDERS

    @staticmethod
    def _can_exit(insn: Instruction) -> bool:
        """Can compiled code leave at this instruction, making the flag
        state there observable?  A store can take the self-modification
        exit, and a trace guards every CALL and RET (tier 1 ends a block
        on them anyway).  Only a memory *destination* stores — loads
        never exit, so a ``mov reg, [mem]`` must not pin flags."""
        cls = insn.info.opclass
        if cls is OpClass.PUSH or cls is OpClass.CALL or cls is OpClass.RET:
            return True
        if cls is OpClass.CMP or cls is OpClass.FCMP:
            return False  # memory operands are read-only comparisons
        ops = insn.operands
        return bool(ops) and type(ops[0]) is Mem

    def _flag_liveness(self, insns) -> list[bool]:
        """need[i]: must insn i's flag results land in the flags?  Live
        at block end (the next block may read them); dead once a later
        insn overwrites all four before any reader."""
        need = [False] * len(insns)
        live = True
        for i in range(len(insns) - 1, -1, -1):
            info = insns[i].info
            cls = info.opclass
            # At an exit point (a store hitting executable bytes, see
            # _selfmod_exit; a trace's call or return guard) the flags
            # state becomes observable, so the preceding flag-writer may
            # not be elided.
            if self._can_exit(insns[i]):
                live = True
            # DIV advertises writes_flags but the machine leaves flags
            # untouched, so it must not count as an overwrite here
            if info.writes_flags and cls is not OpClass.DIV:
                need[i] = live
                live = False
            if cls is OpClass.SETCC or cls is OpClass.JCC:
                live = True
        return need

    def _base_cost(self, insns, costs=None) -> int:
        costs = costs or self._costs
        return sum(costs.base_cost(i, False) for i in insns)

    def epilogue(self, cycles: int, target_expr: str, indent: str = "") -> None:
        """Charge the block's batched counters and jump to ``target_expr``."""
        e = self.emit
        e(f"{indent}perf.instructions += {len(self.insns)}")
        if self.n_loads:
            e(f"{indent}perf.loads += {self.n_loads}")
        if self.n_stores:
            e(f"{indent}perf.stores += {self.n_stores}")
        e(f"{indent}perf.cycles += {cycles}")
        e(f"{indent}cpu.pc = {target_expr}")
        e(f"{indent}return {target_expr}")

    # ------------------------------------------------------ per-insn body
    def gen_insn(self, insn: Instruction, flags_needed: bool) -> None:
        """Translate one straight-line (non-terminator) instruction."""
        op = insn.op
        cls = insn.info.opclass
        ops = insn.operands
        e = self.emit

        if cls is OpClass.MOV:
            self.write_int(ops[0], self.read_int(ops[1]))
        elif cls is OpClass.ALU or cls is OpClass.SHIFT or cls is OpClass.MUL:
            if len(ops) == 1:
                self._gen_unop(op, ops[0], flags_needed)
            else:
                self._gen_binop(op, ops[0], ops[1], flags_needed,
                                write_result=True)
        elif cls is OpClass.CMP:
            if not flags_needed and not any(type(o) is Mem for o in ops):
                pass  # flag-only op whose flags die: nothing observable
            else:
                self._gen_binop(op, ops[0], ops[1], flags_needed,
                                write_result=False)
        elif cls is OpClass.LEA:
            if type(ops[1]) is not Mem:
                raise _Unsupported("LEA without memory source")
            e(f"{self.reg(int(ops[0].reg))} = {self.ea(ops[1])}")
        elif cls is OpClass.FMOV:
            if op is Op.XORPD:
                a0, a1 = self.read_packed(ops[0])
                b0, b1 = self.read_packed(ops[1])
                d = int(ops[0].reg)
                e(f"{self.lane(d, 0)}, {self.lane(d, 1)} = "
                  f"XPD({a0}, {a1}, {b0}, {b1})")
            else:  # MOVSD
                if type(ops[0]) is FReg:
                    e(f"{self.lane(int(ops[0].reg), 0)} = "
                      f"{self.read_float(ops[1])}")
                else:
                    self.store(self.ea(ops[0]), self.read_float(ops[1]), "D")
        elif cls is OpClass.FALU:
            d = self.lane(int(ops[0].reg), 0)
            sym = {Op.ADDSD: "+", Op.SUBSD: "-", Op.MULSD: "*"}[op]
            e(f"{d} = {d} {sym} {self.read_float(ops[1])}")
        elif cls is OpClass.FDIV:
            d = self.lane(int(ops[0].reg), 0)
            if op is Op.SQRTSD:
                b = self.read_float(ops[1])
                e(f"_fb = {b}")
                e(f"{d} = NAN if _fb < 0 else sqrt(_fb)")
            else:  # DIVSD
                e(f"_fb = {self.read_float(ops[1])}")
                e(f"_fa = {d}")
                e("if _fb == 0.0:")
                e(f"    {d} = INF if _fa > 0 else (-INF if _fa < 0 else NAN)")
                e("else:")
                e(f"    {d} = _fa / _fb")
        elif cls is OpClass.FCMP:
            e(f"_fa = {self.read_float(ops[0])}")
            e(f"_fb = {self.read_float(ops[1])}")
            if flags_needed:
                e("if _fa != _fa or _fb != _fb:")
                e("    " + self._flags_line("True", "False", "True", "False"))
                e("else:")
                e("    " + self._flags_line("_fa == _fb", "False",
                                             "_fa < _fb", "False"))
        elif cls is OpClass.FCVT:
            if op is Op.CVTSI2SD:
                e(f"{self.lane(int(ops[0].reg), 0)} = "
                  f"float({self.signed(self.read_int(ops[1]))})")
            else:  # CVTTSD2SI
                e(f"_fa = {self.read_float(ops[1])}")
                e("if _fa != _fa or _fa >= 9223372036854775808.0 "
                  "or _fa < -9223372036854775808.0:")
                e("    _r = SB")
                e("else:")
                e("    _r = int(_fa) & M")
                self.write_int(ops[0], "_r")
        elif cls is OpClass.BITMOV:
            if type(ops[0]) is Reg:
                e(f"{self.reg(int(ops[0].reg))} = "
                  f"UQ(PD({self.read_float(ops[1])}))[0]")
            else:
                e(f"{self.lane(int(ops[0].reg), 0)} = "
                  f"UD(PQ({self.read_int(ops[1])}))[0]")
        elif cls is OpClass.VMOV:
            lo, hi = self.read_packed(ops[1])
            if type(ops[0]) is FReg:
                d = int(ops[0].reg)
                e(f"{self.lane(d, 0)} = {lo}; {self.lane(d, 1)} = {hi}")
            else:
                at = self.tmp()
                e(f"{at} = {self.ea(ops[0])}")
                self.store(at, lo, "D")
                self.store(f"{at} + 8", hi, "D")
        elif cls is OpClass.VALU:
            a0, a1 = self.read_packed(ops[0])
            b0, b1 = self.read_packed(ops[1])
            d = int(ops[0].reg)
            dst = f"{self.lane(d, 0)}, {self.lane(d, 1)}"
            if op is Op.HADDPD:
                e(f"{dst} = {a0} + {a1}, {b0} + {b1}")
            else:
                sym = {Op.ADDPD: "+", Op.SUBPD: "-", Op.MULPD: "*"}[op]
                e(f"{dst} = {a0} {sym} {b0}, {a1} {sym} {b1}")
        elif cls is OpClass.SETCC:
            cond = self.cond(insn.info.cond)
            self.write_int(ops[0], f"(1 if {cond} else 0)")
        elif cls is OpClass.PUSH:
            v = self.read_int(ops[0])
            sp = self.reg(_RSP)
            e(f"_v = {v}")
            e(f"_sp = ({sp} - 8) & M")
            e(f"{sp} = _sp")
            self.store("_sp", "_v", "Q")
        elif cls is OpClass.POP:
            v = self.tmp()
            sp = self.reg(_RSP)
            self.load(sp, v, "Q")
            e(f"{sp} = ({sp} + 8) & M")
            self.write_int(ops[0], v)
        elif cls is OpClass.DIV:
            self.divide(self.read_int(ops[0]))
        elif cls is OpClass.NOP:
            pass
        else:  # pragma: no cover - enders are handled by gen_ender
            raise _Unsupported(f"opclass {cls} in block body")

    def _gen_unop(self, op: Op, operand, flags_needed: bool) -> None:
        e = self.emit
        ts = self.signed
        # read-modify-write through one EA for memory destinations
        if type(operand) is Mem:
            at = self.load(self.ea(operand), "_a", "Q")
            src = "_a"
        else:
            src = self.read_int(operand)
        if op is Op.NOT:
            result = f"({src} ^ M)"
            if type(operand) is Mem:
                self.store(at, result, "Q")
            else:
                self.write_int(operand, result)
            return
        if src != "_a":
            e(f"_a = {src}")
        if op is Op.NEG:
            e("_r = (-_a) & M")
            if flags_needed:
                self.set_flags("_r == 0", "_r >= SB", "0 < _a",
                               f"(-{ts('_a')}) != {ts('_r')}")
        elif op is Op.INC:
            e("_r = (_a + 1) & M")
            if flags_needed:
                self.set_flags("_r == 0", "_r >= SB", "_a + 1 > M",
                               f"{ts('_a')} + 1 != {ts('_r')}")
        elif op is Op.DEC:
            e("_r = (_a - 1) & M")
            if flags_needed:
                self.set_flags("_r == 0", "_r >= SB", "_a < 1",
                               f"{ts('_a')} - 1 != {ts('_r')}")
        else:
            raise _Unsupported(f"unary {op}")
        if type(operand) is Mem:
            self.store(at, "_r", "Q")
        else:
            self.write_int(operand, "_r")

    def _gen_binop(self, op: Op, dst, src, flags_needed: bool,
                   write_result: bool) -> None:
        e = self.emit
        ts = self.signed
        at = None
        if write_result and type(dst) is Mem:
            # read-modify-write: one EA, load now, store after
            at = self.load(self.ea(dst), "_a", "Q")
            a = "_a"
        else:
            a = self.read_int(dst)
        b = self.read_int(src)
        simple = not flags_needed and write_result and type(dst) is Reg
        if op is Op.ADD:
            if simple:
                self.write_int(dst, f"({a} + {b}) & M")
                return
            e(f"_a = {a}; _b = {b}" if a != "_a" else f"_b = {b}")
            e("_r = (_a + _b) & M")
            if flags_needed:
                self.set_flags("_r == 0", "_r >= SB", "_a + _b > M",
                               f"{ts('_a')} + {ts('_b')} != {ts('_r')}")
        elif op is Op.SUB or op is Op.CMP:
            if simple:
                self.write_int(dst, f"({a} - {b}) & M")
                return
            e(f"_a = {a}; _b = {b}" if a != "_a" else f"_b = {b}")
            e("_r = (_a - _b) & M")
            if flags_needed:
                self.set_flags("_r == 0", "_r >= SB", "_a < _b",
                               f"{ts('_a')} - {ts('_b')} != {ts('_r')}")
        elif op in (Op.AND, Op.TEST):
            if simple:
                self.write_int(dst, f"{a} & {b}")
                return
            e(f"_r = {a} & {b}")
            if flags_needed:
                self.logic_flags("_r")
        elif op is Op.OR:
            if simple:
                self.write_int(dst, f"{a} | {b}")
                return
            e(f"_r = {a} | {b}")
            if flags_needed:
                self.logic_flags("_r")
        elif op is Op.XOR:
            if simple:
                self.write_int(dst, f"{a} ^ {b}")
                return
            e(f"_r = {a} ^ {b}")
            if flags_needed:
                self.logic_flags("_r")
        elif op is Op.IMUL:
            e(f"_f = {ts(a)} * {ts(b)}")
            e("_r = _f & M")
            if flags_needed:
                e(f"_o = _f != {ts('_r')}")
                self.set_flags("_r == 0", "_r >= SB", "_o", "_o")
        elif op is Op.SHL:
            if simple:
                self.write_int(dst, f"({a} << ({b} & 63)) & M")
                return
            e(f"_r = ({a} << ({b} & 63)) & M")
            if flags_needed:
                self.logic_flags("_r")
        elif op is Op.SHR:
            if simple:
                self.write_int(dst, f"{a} >> ({b} & 63)")
                return
            e(f"_r = {a} >> ({b} & 63)")
            if flags_needed:
                self.logic_flags("_r")
        elif op is Op.SAR:
            if simple:
                self.write_int(dst, f"({ts(a)} >> ({b} & 63)) & M")
                return
            e(f"_r = ({ts(a)} >> ({b} & 63)) & M")
            if flags_needed:
                self.logic_flags("_r")
        else:
            raise _Unsupported(f"binop {op}")
        if write_result:
            if at is not None:
                self.store(at, "_r", "Q")
            else:
                self.write_int(dst, "_r")

    # ------------------------------------------------------- block enders
    def gen_ender(self, insn: Instruction, flags_needed: bool) -> None:
        """Translate the block's terminator (jump/call/ret/halt)."""
        op = insn.op
        cls = insn.info.opclass
        ops = insn.operands
        e = self.emit
        costs = self._costs
        body = self._base_cost(self.insns[:-1])

        if cls is OpClass.JMP:
            e("perf.branches += 1")
            e("perf.taken_branches += 1")
            if op is Op.JMPI:
                e(f"_t = {self.reg(int(ops[0].reg))}")
                self.epilogue(body + costs.base_cost(insn, False), "_t")
            else:
                self.epilogue(body + costs.base_cost(insn, False),
                              repr(ops[0].value))
        elif cls is OpClass.JCC:
            e("perf.branches += 1")
            e(f"if {self.cond(insn.info.cond)}:")
            e("    perf.taken_branches += 1")
            self.epilogue(body + costs.base_cost(insn, True),
                          repr(ops[0].value), indent="    ")
            self.epilogue(body + costs.base_cost(insn, False),
                          repr(self.fall_pc))
        elif cls is OpClass.CALL:
            self.needs.add("call")
            if op is Op.CALLI:
                e(f"_t = {self.reg(int(ops[0].reg))}")
                target = "_t"
            else:
                target = repr(ops[0].value)
            # charge the body *before* any host code runs so a host
            # function observing perf mid-call sees interpreter-exact
            # counters; the call's own cost lands after, like the
            # interpreter's post-execute charge
            e(f"perf.instructions += {len(self.insns)}")
            if self.n_loads:
                e(f"perf.loads += {self.n_loads}")
            if self.n_stores:
                e(f"perf.stores += {self.n_stores}")
            e(f"perf.cycles += {body}")
            e("perf.calls += 1")
            e("if hooks:")
            e(f"    for _h in hooks: _h(cpu, {target})")
            e(f"_host = hostfns.get({target})")
            call_cost = costs.base_cost(insn, False)
            e("if _host is not None:")
            e("    _host(cpu)")
            e(f"    perf.cycles += {call_cost}")
            e(f"    cpu.pc = {repr(self.fall_pc)}")
            e(f"    return {repr(self.fall_pc)}")
            sp = self.reg(_RSP)
            e(f"_sp = ({sp} - 8) & M")
            e(f"{sp} = _sp")
            self.store("_sp", repr(self.fall_pc), "Q", count_inline=True)
            e(f"perf.cycles += {call_cost}")
            e(f"stack.append(CFI({target}, {repr(self.fall_pc)}))")
            e(f"cpu.pc = {target}")
            e(f"return {target}")
        elif cls is OpClass.RET:
            self.needs.add("call")
            t = self.tmp()
            sp = self.reg(_RSP)
            self.load(sp, t, "Q")
            e(f"{sp} = ({sp} + 8) & M")
            e("perf.rets += 1")
            e("if stack:")
            e("    stack.pop()")
            self.epilogue(body + costs.base_cost(insn, False), t)
        elif cls is OpClass.HLT:
            self.epilogue(body + costs.base_cost(insn, False), "HALT")
        else:  # pragma: no cover
            raise _Unsupported(f"ender {cls}")

    # -------------------------------------------------------------- render
    def render(self) -> str:
        """Assemble the preamble (only the locals the body needs) + body."""
        pre = ["def _block(cpu):", "    regs = cpu.regs", "    perf = cpu.perf"]
        if "flags" in self.needs:
            pre.append("    flags = cpu.flags")
        if "xmm" in self.needs:
            pre.append("    xmm = cpu.xmm")
        if "mem" in self.needs:
            pre.append("    seg_ = cpu._seg_cache or NOSEG")
            pre.append("    segfor = cpu.memory.segment_for")
        if "cw" in self.needs:
            pre.append("    cw_ = False")
        if "call" in self.needs:
            pre.append("    hooks = cpu.call_hooks")
            pre.append("    hostfns = cpu.host_functions")
            pre.append("    stack = cpu.call_stack")
        return "\n".join(pre + self.lines) + "\n"


class BlockJIT:
    """The tier-1 engine: block code cache + dispatch loop + invalidation.

    Constructing one attaches it to ``cpu`` (``cpu.jit = self``) and
    registers an executable-segment write listener on the image, so the
    cache can never serve a block whose bytes were re-poked.
    """

    #: Chained back-edges into one target before the dispatch loop
    #: promotes it to a trace; 0 turns profiling off, as tier 1 has no
    #: trace former (the trace JIT sets its own).
    hot_threshold = 0

    def __init__(self, cpu: CPU) -> None:
        self.cpu = cpu
        self.cache: dict[int, CompiledBlock] = {}
        #: ``(filename, source)`` -> ``compile()`` output, shared by both
        #: tiers (see :meth:`_code`).
        self._code_memo: dict[tuple[str, str], CodeType] = {}
        #: Generation counter; bumped by every invalidation.  The loop
        #: re-checks it after each block so host-triggered rewrites
        #: (CALL blocks) take effect before the next guest instruction.
        self.gen = 0
        self.compiles = 0
        self.hits = 0
        self.invalidations = 0
        self.chain_follows = 0
        self.interp_fallbacks = 0
        self._globals = {
            "M": MASK64, "SB": SIGN_BIT, "ts": S.to_signed,
            "sqrt": math.sqrt, "NAN": math.nan, "INF": math.inf,
            "ZF": Flag.ZF, "SF": Flag.SF, "CF": Flag.CF, "OF": Flag.OF,
            "UQF": _SQ.unpack_from, "PQI": _SQ.pack_into,
            "UDF": _SD.unpack_from, "PDI": _SD.pack_into,
            "PD": _SD.pack, "UQ": _SQ.unpack,
            "PQ": _SQ.pack, "UD": _SD.unpack,
            "XPD": _xorpd, "IDIV": S.idiv, "CFI": CallFrameInfo,
            "HALT": LAYOUT.halt_addr, "NOSEG": _NOSEG,
        }
        cpu.jit = self
        cpu.image.code_listeners.append(self._on_code_write)

    # -------------------------------------------------------- invalidation
    def invalidate_range(self, start: int, end: int) -> None:
        """Drop blocks overlapping ``[start, end)`` and sever all chain
        links (a surviving block may link to a dropped one)."""
        dropped = [a for a, blk in self.cache.items()
                   if a < end and blk.end > start]
        for a in dropped:
            del self.cache[a]
        for blk in self.cache.values():
            if blk.links:
                blk.links.clear()
        self.gen += 1
        self.invalidations += 1

    def _on_code_write(self, addr: int, length: int) -> None:
        self.invalidate_range(addr, addr + max(length, 1))

    def stats(self) -> dict:
        """The JIT's counters, the only record of them: cumulative since
        it was attached, except the point-in-time ``cached_blocks`` and
        ``chain_edges``."""
        return {
            "compiles": self.compiles,
            "hits": self.hits,
            "invalidations": self.invalidations,
            "chain_follows": self.chain_follows,
            # chained executions bypass the cache-lookup hit counter, so
            # `hits` alone wildly understates reuse (a warm stencil
            # sweep showed 10 hits against 62k follows); `reuses` is the
            # honest number: every block execution that did not need a
            # fresh compile
            "reuses": self.hits + self.chain_follows,
            "interp_fallbacks": self.interp_fallbacks,
            "cached_blocks": len(self.cache),
            "chain_edges": sum(len(b.links) for b in self.cache.values()),
        }

    def chain_graph(self) -> dict[int, dict[int, int]]:
        """The tier-1 chain graph: ``{block_addr: {successor_pc:
        follow_count}}`` for every cached block with at least one link.

        The counts are edge frequencies observed by the dispatch loop
        (installs count 0; every chained follow afterwards counts 1) —
        the profile the tier-2 trace former walks, exposed here for
        introspection and debugging.  Invalidation clears links, so the
        graph always describes the current generation only."""
        return {
            addr: {pc: ent[1] for pc, ent in blk.links.items()}
            for addr, blk in sorted(self.cache.items())
            if blk.links
        }

    # -------------------------------------------------------------- compile
    def _decode_block(self, addr: int) -> tuple[list[Instruction], int]:
        """The straight-line run of executable instructions starting at
        ``addr``, fetched through the image's decode cache; returns
        ``(insns, end_addr)``, with no instructions if ``addr`` is not
        executable.  A decode fault *mid*-block truncates it (the
        preceding instructions must still execute before the guest
        observes the fault at the bad pc)."""
        image = self.cpu.image
        insns: list[Instruction] = []
        pc = addr
        while True:
            try:
                insn = image.fetch(pc)
            except Exception:
                if insns:
                    break
                raise
            if pc not in image.decoded:
                break  # not executable: only executable bytes are cached
            insns.append(insn)
            pc += insn.size
            if insn.info.opclass in _BLOCK_ENDERS:
                break
            if len(insns) >= MAX_BLOCK_INSNS:
                break
        return insns, pc

    def _code(self, source: str, filename: str) -> CodeType:
        """``compile(source, filename, "exec")``, memoized: the same
        text always compiles to the same code, so a block or trace
        version rebuilt from unchanged bytes reuses it.  Callers ``exec``
        the code into a fresh namespace, so every compiled block and
        trace version still gets its own functions and globals."""
        memo = self._code_memo
        key = (filename, source)
        code = memo.get(key)
        if code is None:
            if len(memo) >= MAX_CODE_MEMO:
                del memo[next(iter(memo))]  # oldest first
            code = memo[key] = compile(source, filename, "exec")
        return code

    def _compile(self, addr: int) -> CompiledBlock:
        insns, end = self._decode_block(addr)
        if not insns:
            # not executable: writes there drop no compiled code, so the
            # step runs uncached (and unlinked) on every visit
            return self._fallback_block(addr)
        try:
            compiler = _BlockCompiler(insns, end, self.cpu.costs)
            source = compiler.gen()
            ns = dict(self._globals)
            exec(self._code(source, f"<jit:0x{addr:x}>"), ns)
            blk = CompiledBlock(addr, end, ns["_block"], insns, source)
        except _Unsupported:
            blk = self._fallback_block(addr)
        self.cache[addr] = blk
        self.compiles += 1
        return blk

    def _fallback_block(self, addr: int) -> CompiledBlock:
        """A single interpreted step wrapped as a block — the safety net
        for operand shapes the translator does not handle, and the way
        non-executable bytes run."""
        cpu = self.cpu
        insn = cpu.image.fetch(addr)
        c_nt, c_t = cpu.step_cost(insn)

        def run(c, _i=insn, _nt=c_nt, _t=c_t):
            p = c.perf
            p.instructions += 1
            taken = c._execute(_i)
            p.cycles += _t if taken else _nt
            return c.pc

        self.interp_fallbacks += 1
        return CompiledBlock(addr, addr + (insn.size or 1), run, [insn],
                             "# interpreter fallback\n")

    # ----------------------------------------------------------------- loop
    def loop(self, max_steps: int) -> int:
        """Run until halt (same contract as :meth:`CPU._interp_loop`).

        The one dispatch loop of both tiers: trace entries
        (``is_trace``) and back-edge profiling (off while
        :attr:`hot_threshold` is 0) serve only the trace JIT."""
        cpu = self.cpu
        cache = self.cache
        halt = LAYOUT.halt_addr
        steps = 0
        hits = follows = 0
        hot_at = self.hot_threshold
        hot = self._hot if hot_at else None
        try:
            gen = self.gen
            pc = cpu.pc
            while True:
                if pc == halt:
                    return steps
                if steps >= max_steps:
                    # raises the exhaustion fault exactly like tier 0
                    return cpu._interp_loop(max_steps, steps)
                blk = cache.get(pc)
                if blk is None:
                    blk = self._compile(pc)
                else:
                    hits += 1
                while True:
                    if steps + blk.n_insns > max_steps:
                        # hand the tail to the interpreter so max_steps
                        # exhaustion faults on exactly the same step
                        return cpu._interp_loop(max_steps, steps)
                    if blk.is_trace:
                        # budget >= n_insns (checked above), so the
                        # iteration cap is >= 1 and the trace can never
                        # overstep max_steps; _ran_partial is the exact
                        # executed instruction count.
                        pc = blk.run(cpu, max_steps - steps)
                        ran = cpu._ran_partial
                        steps += ran
                        cpu._ran_partial = None
                        if not ran:
                            # Zero progress: a call guard at the head
                            # failed before the first instruction, and
                            # re-entering would fail the same way
                            # forever.  Tier 1 runs the head instead.
                            self._deactivate(blk)
                        elif pc != blk.addr:
                            # Side exit.  A run of DEACT_MIN_EXITS
                            # consecutive entries each yielding fewer
                            # than DEACT_ITERS_PER_EXIT iterations means
                            # the profile has shifted: deactivate and
                            # let re-profiling pick the new version.
                            if ran < DEACT_ITERS_PER_EXIT * blk.n_insns:
                                blk.lowrun += 1
                                if blk.lowrun >= DEACT_MIN_EXITS:
                                    self._deactivate(blk)
                            else:
                                blk.lowrun = 0
                    else:
                        pc = blk.run(cpu)
                        ran = cpu._ran_partial
                        if ran is None:
                            steps += blk.n_insns
                        else:
                            # the block left through its code-write exit
                            # after `ran` of its instructions (self-
                            # modification): charge only what executed
                            steps += ran
                            cpu._ran_partial = None
                    if pc == halt:
                        return steps
                    if self.gen != gen:
                        # invalidated under our feet (a host call
                        # rewrote code): drop the stale reference and
                        # refetch from the cache
                        gen = self.gen
                        break
                    ent = blk.links.get(pc)
                    if ent is None:
                        if steps >= max_steps:
                            return cpu._interp_loop(max_steps, steps)
                        nxt = cache.get(pc)
                        if nxt is None:
                            nxt = self._compile(pc)
                        else:
                            hits += 1
                        if pc in cache:  # an uncached step gets no link
                            blk.links[pc] = [nxt, 0]
                    else:
                        ent[1] += 1
                        follows += 1
                        nxt = ent[0]
                    if pc <= blk.addr and hot_at and not nxt.is_trace:
                        # a back-edge: count it toward promoting its target
                        n = hot.get(pc, 0) + 1
                        if n >= hot_at:
                            hot[pc] = 0
                            if pc not in self._no_trace:
                                t = self._promote(pc)
                                if t is not None:
                                    nxt = t
                        else:
                            hot[pc] = n
                    blk = nxt
        finally:
            self.hits += hits
            self.chain_follows += follows
