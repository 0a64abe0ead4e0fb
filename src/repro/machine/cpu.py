"""The BX64 interpreter with deterministic cycle accounting.

This is the "hardware" of the reproduction: it executes encoded bytes
from the image, charges cycles according to :class:`~repro.isa.costs.CostModel`
plus per-segment surcharges (remote PGAS memory), and exposes the hooks
the rest of the system needs:

* ``host_functions`` — Python callables reachable via ``CALL`` at
  reserved addresses (used for ``print``-style helpers in examples);
* ``call_hooks`` — observers fired at every call (the value profiler).

Instructions come from the image's decode cache (:meth:`Image.fetch`),
which the block JIT and the rewriter's tracer read too.

Value semantics are delegated to :mod:`repro.isa.semantics`, the same
module the rewriter's tracer folds constants with — by construction the
two cannot drift apart.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable

from repro.errors import CpuError
from repro.isa.costs import DEFAULT_COSTS, CostModel
from repro.isa.flags import Flag, cond_holds
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op, OpClass
from repro.isa.operands import FReg, Imm, Mem, Reg
from repro.isa.registers import GPR
from repro.isa import semantics as S
from repro.machine.image import Image, LAYOUT
from repro.machine.perf import PerfCounters

MASK64 = (1 << 64) - 1

_FLAGS = tuple(Flag)


@dataclass
class CallFrameInfo:
    """One entry of the simulated call stack (for diagnostics)."""

    target: int
    return_addr: int


@dataclass
class RunResult:
    """Outcome of one ``CPU.run`` invocation."""

    uint_return: int
    float_return: float
    steps: int
    perf: PerfCounters  # counters accumulated during this run only

    @property
    def int_return(self) -> int:
        return S.to_signed(self.uint_return)

    @property
    def cycles(self) -> int:
        return self.perf.cycles


class CPU:
    """A single BX64 hardware thread."""

    def __init__(self, image: Image, costs: CostModel | None = None) -> None:
        self.image = image
        self.memory = image.memory
        self.costs = costs or DEFAULT_COSTS
        self.perf = PerfCounters()
        self.regs: list[int] = [0] * 16
        self.xmm: list[list[float]] = [[0.0, 0.0] for _ in range(16)]
        self.flags: dict[Flag, bool] = dict.fromkeys(_FLAGS, False)
        self.pc: int = 0
        self.host_functions: dict[int, Callable[["CPU"], None]] = {}
        self.call_hooks: list[Callable[["CPU", int], None]] = []
        self.call_stack: list[CallFrameInfo] = []
        #: A step's (not-taken, taken) cycle costs by opcode, then by
        #: operand-kind string: all that :meth:`CostModel.base_cost` reads
        #: of an instruction, so one pair serves every instruction of that
        #: shape and no code write can make it stale.
        self._step_costs: dict[Op, dict[str, tuple[int, int]]] = {
            op: {} for op in Op}
        #: Set by a compiled block that exits early through its
        #: code-write (self-modification) path: the number of its
        #: instructions that actually executed.  Tier-2 traces
        #: (:mod:`repro.machine.tracejit`) set it on *every* return —
        #: iterations times per-iteration count plus the exit prefix —
        #: since a trace's executed length is dynamic.  The dispatch
        #: loop consumes it so step counts stay exact across tiers.
        self._ran_partial: int | None = None
        self._seg_cache = None  # last segment hit (cheap TLB)
        #: Execution engine when attached — tier-1
        #: :class:`repro.machine.blockjit.BlockJIT` or the tier-2
        #: :class:`repro.machine.tracejit.TraceJIT` subclass; None runs
        #: the plain interpreter loop.
        self.jit = None

    # ------------------------------------------------------------------ mem
    def _segment(self, addr: int, length: int = 8):
        seg = self._seg_cache
        if seg is not None and seg.base <= addr and addr + length <= seg.end:
            return seg
        seg = self.memory.segment_for(addr, length)
        self._seg_cache = seg
        return seg

    def _charge_segment(self, seg) -> None:
        extra = seg.extra_cost
        if extra:
            self.perf.cycles += extra
            self.perf.remote_cycles += extra
            self.perf.remote_accesses += 1

    def load_u64(self, addr: int) -> int:
        """8-byte load with counters and segment surcharge."""
        seg = self._segment(addr)
        self._charge_segment(seg)
        self.perf.loads += 1
        return struct.unpack_from("<Q", seg.data, addr - seg.base)[0]

    def store_u64(self, addr: int, value: int) -> None:
        """8-byte store with counters and segment surcharge."""
        seg = self._segment(addr)
        self._charge_segment(seg)
        self.perf.stores += 1
        if seg.watched and self.memory.before_write(seg):
            struct.pack_into("<Q", seg.data, addr - seg.base, value & MASK64)
            self.image.notify_code_write(addr, 8)
        else:
            struct.pack_into("<Q", seg.data, addr - seg.base, value & MASK64)

    def load_f64(self, addr: int) -> float:
        """Double load with counters and segment surcharge."""
        seg = self._segment(addr)
        self._charge_segment(seg)
        self.perf.loads += 1
        return struct.unpack_from("<d", seg.data, addr - seg.base)[0]

    def store_f64(self, addr: int, value: float) -> None:
        """Double store with counters and segment surcharge."""
        seg = self._segment(addr)
        self._charge_segment(seg)
        self.perf.stores += 1
        if seg.watched and self.memory.before_write(seg):
            struct.pack_into("<d", seg.data, addr - seg.base, value)
            self.image.notify_code_write(addr, 8)
        else:
            struct.pack_into("<d", seg.data, addr - seg.base, value)

    # --------------------------------------------------------------- costs
    def step_cost(self, insn: Instruction) -> tuple[int, int]:
        """``insn``'s (not-taken, taken) cycle cost, memoized."""
        by_kinds = self._step_costs[insn.op]
        pair = by_kinds.get(insn.kinds)
        if pair is None:
            pair = by_kinds[insn.kinds] = (self.costs.base_cost(insn, False),
                                           self.costs.base_cost(insn, True))
        return pair

    # ------------------------------------------------------------ operands
    def ea(self, mem: Mem) -> int:
        """Concrete effective address of a memory operand."""
        addr = mem.disp
        if mem.base is not None:
            addr += self.regs[mem.base]
        if mem.index is not None:
            addr += self.regs[mem.index] * mem.scale
        return addr & MASK64

    def read_int(self, operand) -> int:
        """Integer-context operand read (reg/imm/memory)."""
        if type(operand) is Reg:
            return self.regs[operand.reg]
        if type(operand) is Imm:
            return operand.value
        if type(operand) is Mem:
            return self.load_u64(self.ea(operand))
        raise CpuError(f"bad integer operand {operand!r}")

    def write_int(self, operand, value: int) -> None:
        if type(operand) is Reg:
            self.regs[operand.reg] = value & MASK64
        elif type(operand) is Mem:
            self.store_u64(self.ea(operand), value)
        else:
            raise CpuError(f"bad integer destination {operand!r}")

    def read_float(self, operand) -> float:
        """Scalar-double operand read (xmm lane 0 or memory)."""
        if type(operand) is FReg:
            return self.xmm[operand.reg][0]
        if type(operand) is Mem:
            return self.load_f64(self.ea(operand))
        raise CpuError(f"bad float operand {operand!r}")

    def read_packed(self, operand) -> tuple[float, float]:
        """Packed-double operand read (both lanes)."""
        if type(operand) is FReg:
            lanes = self.xmm[operand.reg]
            return (lanes[0], lanes[1])
        if type(operand) is Mem:
            addr = self.ea(operand)
            return (self.load_f64(addr), self.load_f64(addr + 8))
        raise CpuError(f"bad packed operand {operand!r}")

    # ----------------------------------------------------------------- run
    def setup_args(self, args: tuple) -> None:
        """Place Python arguments into ABI registers (int vs float class)."""
        from repro.abi.callconv import FLOAT_ARG_REGS, INT_ARG_REGS

        next_int = next_float = 0
        for arg in args:
            if isinstance(arg, bool):
                raise CpuError("refusing boolean argument; pass 0/1")
            if isinstance(arg, float):
                self.xmm[FLOAT_ARG_REGS[next_float]][0] = arg
                next_float += 1
            elif isinstance(arg, int):
                self.regs[INT_ARG_REGS[next_int]] = arg & MASK64
                next_int += 1
            else:
                raise CpuError(f"unsupported argument {arg!r}")

    def run(self, entry: int | str, *args,
            max_steps: int = 200_000_000) -> RunResult:
        """Call the function at ``entry`` with ``args`` and run to return,
        starting from zeroed registers and flags."""
        entry_addr = self.image.resolve(entry)
        self.regs = [0] * 16
        self.xmm = [[0.0, 0.0] for _ in range(16)]
        self.flags = dict.fromkeys(_FLAGS, False)
        self.setup_args(tuple(args))
        self.regs[GPR.RSP] = self.image.initial_rsp
        # push the halt sentinel as the return address
        self.regs[GPR.RSP] -= 8
        self.store_u64(self.regs[GPR.RSP], LAYOUT.halt_addr)
        self.pc = entry_addr
        before = self.perf.snapshot()
        steps = self._loop(max_steps)
        return RunResult(
            uint_return=self.regs[GPR.RAX],
            float_return=self.xmm[0][0],
            steps=steps,
            perf=self.perf.delta(before),
        )

    # ---------------------------------------------------------------- loop
    def _loop(self, max_steps: int) -> int:
        if self.jit is not None:
            return self.jit.loop(max_steps)
        return self._interp_loop(max_steps)

    def _interp_loop(self, max_steps: int, steps: int = 0) -> int:
        """The tier-0 interpreter loop, starting at ``steps`` already
        executed (the block engine falls back here near the step limit
        so the exhaustion fault fires at exactly the same point)."""
        perf = self.perf
        decoded = self.image.decoded
        fetch = self.image.fetch
        step_costs = self._step_costs
        halt = LAYOUT.halt_addr
        while True:
            if steps >= max_steps:
                raise CpuError(f"exceeded max_steps={max_steps} at pc=0x{self.pc:x}")
            insn = decoded.get(self.pc)
            if insn is None:
                insn = fetch(self.pc)
            cost = step_costs[insn.op].get(insn.kinds)
            if cost is None:
                cost = self.step_cost(insn)
            steps += 1
            perf.instructions += 1
            taken = self._execute(insn)
            perf.cycles += cost[1] if taken else cost[0]
            if self.pc == halt:
                return steps

    # ------------------------------------------------------------- execute
    def _execute(self, insn: Instruction) -> bool | None:
        """Execute one instruction; returns taken-ness for Jcc else None.

        Updates ``self.pc``.
        """
        op = insn.op
        cls = insn.info.opclass
        ops = insn.operands
        next_pc = self.pc + (insn.size or 0)

        if cls is OpClass.MOV:
            self.write_int(ops[0], self.read_int(ops[1]))
        elif cls is OpClass.ALU or cls is OpClass.SHIFT or cls is OpClass.MUL:
            if len(ops) == 1:  # unary
                value = self.read_int(ops[0])
                result, flags = S.int_unop(op, value)
                self.write_int(ops[0], result)
                if flags is not None:
                    self.flags.update(flags)
            else:
                a = self.read_int(ops[0])
                b = self.read_int(ops[1])
                result, flags = S.int_binop(op, a, b)
                self.write_int(ops[0], result)
                self.flags.update(flags)
        elif cls is OpClass.CMP:
            a = self.read_int(ops[0])
            b = self.read_int(ops[1])
            _, flags = S.int_binop(op, a, b)
            self.flags.update(flags)
        elif cls is OpClass.LEA:
            assert isinstance(ops[1], Mem)
            self.regs[ops[0].reg] = self.ea(ops[1])  # type: ignore[union-attr]
        elif cls is OpClass.FMOV:
            if op is Op.XORPD:
                lanes = S.xorpd(self.read_packed(ops[0]),
                                self.read_packed(ops[1]))
                self.xmm[ops[0].reg][0] = lanes[0]  # type: ignore[union-attr]
                self.xmm[ops[0].reg][1] = lanes[1]  # type: ignore[union-attr]
            else:  # MOVSD
                value = self.read_float(ops[1])
                if type(ops[0]) is FReg:
                    self.xmm[ops[0].reg][0] = value
                else:
                    self.store_f64(self.ea(ops[0]), value)  # type: ignore[arg-type]
        elif cls is OpClass.FALU:
            a = self.read_float(ops[0])
            b = self.read_float(ops[1])
            self.xmm[ops[0].reg][0] = S.float_binop(op, a, b)  # type: ignore[union-attr]
        elif cls is OpClass.FDIV:
            if op is Op.SQRTSD:
                self.xmm[ops[0].reg][0] = S.float_sqrt(self.read_float(ops[1]))  # type: ignore[union-attr]
            else:
                a = self.read_float(ops[0])
                b = self.read_float(ops[1])
                self.xmm[ops[0].reg][0] = S.float_binop(op, a, b)  # type: ignore[union-attr]
        elif cls is OpClass.FCMP:
            self.flags.update(
                S.ucomisd_flags(self.read_float(ops[0]), self.read_float(ops[1]))
            )
        elif cls is OpClass.FCVT:
            if op is Op.CVTSI2SD:
                self.xmm[ops[0].reg][0] = S.cvtsi2sd(self.read_int(ops[1]))  # type: ignore[union-attr]
            else:  # CVTTSD2SI
                self.write_int(ops[0], S.cvttsd2si(self.read_float(ops[1])))
        elif cls is OpClass.BITMOV:
            if type(ops[0]) is Reg:  # movq r, x
                bits = struct.unpack("<Q", struct.pack("<d", self.read_float(ops[1])))[0]
                self.regs[ops[0].reg] = bits
            else:  # movq x, r
                value = struct.unpack("<d", struct.pack("<Q", self.read_int(ops[1])))[0]
                self.xmm[ops[0].reg][0] = value  # type: ignore[union-attr]
        elif cls is OpClass.VMOV:
            value = self.read_packed(ops[1])
            if type(ops[0]) is FReg:
                self.xmm[ops[0].reg][0] = value[0]
                self.xmm[ops[0].reg][1] = value[1]
            else:
                addr = self.ea(ops[0])  # type: ignore[arg-type]
                self.store_f64(addr, value[0])
                self.store_f64(addr + 8, value[1])
        elif cls is OpClass.VALU:
            a = self.read_packed(ops[0])
            b = self.read_packed(ops[1])
            result = S.packed_binop(op, a, b)
            self.xmm[ops[0].reg][0] = result[0]  # type: ignore[union-attr]
            self.xmm[ops[0].reg][1] = result[1]  # type: ignore[union-attr]
        elif cls is OpClass.SETCC:
            cond = insn.info.cond
            assert cond is not None
            self.write_int(ops[0], 1 if cond_holds(cond, self.flags) else 0)
        elif cls is OpClass.PUSH:
            value = self.read_int(ops[0])
            self.regs[GPR.RSP] = (self.regs[GPR.RSP] - 8) & MASK64
            self.store_u64(self.regs[GPR.RSP], value)
        elif cls is OpClass.POP:
            value = self.load_u64(self.regs[GPR.RSP])
            self.regs[GPR.RSP] = (self.regs[GPR.RSP] + 8) & MASK64
            self.write_int(ops[0], value)
        elif cls is OpClass.JMP:
            target = self.regs[ops[0].reg] if op is Op.JMPI else ops[0].value  # type: ignore[union-attr]
            self.perf.branches += 1
            self.perf.taken_branches += 1
            self.pc = target
            return None
        elif cls is OpClass.JCC:
            cond = insn.info.cond
            assert cond is not None
            taken = cond_holds(cond, self.flags)
            self.perf.branches += 1
            if taken:
                self.perf.taken_branches += 1
                self.pc = ops[0].value  # type: ignore[union-attr]
            else:
                self.pc = next_pc
            return taken
        elif cls is OpClass.CALL:
            target = self.regs[ops[0].reg] if op is Op.CALLI else ops[0].value  # type: ignore[union-attr]
            self.perf.calls += 1
            if self.call_hooks:
                for hook in self.call_hooks:
                    hook(self, target)
            host = self.host_functions.get(target)
            if host is not None:
                host(self)
                self.pc = next_pc
                return None
            self.regs[GPR.RSP] = (self.regs[GPR.RSP] - 8) & MASK64
            self.store_u64(self.regs[GPR.RSP], next_pc)
            self.call_stack.append(CallFrameInfo(target, next_pc))
            self.pc = target
            return None
        elif cls is OpClass.RET:
            addr = self.load_u64(self.regs[GPR.RSP])
            self.regs[GPR.RSP] = (self.regs[GPR.RSP] + 8) & MASK64
            self.perf.rets += 1
            if self.call_stack:
                self.call_stack.pop()
            self.pc = addr
            return None
        elif cls is OpClass.DIV:
            divisor = self.read_int(ops[0])
            quot, rem = S.idiv(self.regs[GPR.RAX], divisor)
            self.regs[GPR.RAX] = quot
            self.regs[GPR.RDX] = rem
        elif cls is OpClass.NOP:
            pass
        elif cls is OpClass.HLT:
            self.pc = LAYOUT.halt_addr
            return None
        else:  # pragma: no cover - exhaustive over OpClass
            raise CpuError(f"unimplemented opclass {cls} for {insn}")

        self.pc = next_pc
        return None
