"""Register renaming / copy propagation (paper Sec. VIII: "as next step,
we will implement register renaming for improved inlining of small
functions and deep call chains").

Inlined code is full of ABI-induced copies: results shuttle through
``rax``/``xmm0``, accumulators bounce between promoted registers and
scratch.  This block-local pass forward-propagates plain register copies
(``mov A, B`` / ``movsd A, B``): subsequent reads of ``A`` are renamed
to ``B`` until either register is rewritten, after which the copy itself
is usually dead and falls to DCE (run ``dce`` after ``regrename``).

Safety: copies do not write flags in BX64 (as on x86), so no flag
dependency is disturbed; renaming never crosses control flow, calls, or
instructions with implicit register semantics (``idiv``, ``push``/``pop``).
"""

from __future__ import annotations

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op, OpClass, op_info
from repro.isa.operands import FReg, Mem, Reg
from repro.machine.image import Image

_BARRIERS = (OpClass.CALL, OpClass.RET, OpClass.JMP, OpClass.JCC,
             OpClass.HLT, OpClass.DIV, OpClass.PUSH, OpClass.POP)


def _reg_key(operand):
    if isinstance(operand, Reg):
        return ("g", int(operand.reg))
    if isinstance(operand, FReg):
        return ("x", int(operand.reg))
    return None


def _written_key(insn: Instruction):
    cls = op_info(insn.op).opclass
    if not insn.operands:
        return None
    if cls in (OpClass.MOV, OpClass.LEA, OpClass.FMOV, OpClass.VMOV,
               OpClass.SETCC, OpClass.FCVT, OpClass.BITMOV,
               OpClass.ALU, OpClass.MUL, OpClass.SHIFT,
               OpClass.FALU, OpClass.FDIV, OpClass.VALU):
        return _reg_key(insn.operands[0])
    return None


def rename_registers(insns: list[Instruction], image: Image) -> list[Instruction]:
    """Forward copy propagation; see module doc for the safety rules."""
    out: list[Instruction] = []
    # alias map: register key -> operand it currently copies
    alias: dict[tuple, Reg | FReg] = {}

    def forget(key) -> None:
        if key is None:
            return
        alias.pop(key, None)
        for k in [k for k, v in alias.items() if _reg_key(v) == key]:
            del alias[k]

    for insn in insns:
        cls = op_info(insn.op).opclass
        if cls in _BARRIERS:
            alias.clear()
            out.append(insn)
            continue

        # rename source operands through the alias map
        ops = list(insn.operands)
        changed = False
        for i in range(len(ops)):
            if i == 0 and cls not in (OpClass.CMP, OpClass.FCMP):
                # destination slot: only rename the *read* part of RMW ops
                # when the replacement register class matches — skip to
                # stay conservative (renaming a RMW destination would
                # redirect the write).
                continue
            key = _reg_key(ops[i])
            if key is not None and key in alias:
                ops[i] = alias[key]
                changed = True
            elif isinstance(ops[i], Mem):
                mem = ops[i]
                base, index = mem.base, mem.index
                rebased = False
                if base is not None and ("g", int(base)) in alias:
                    repl = alias[("g", int(base))]
                    if isinstance(repl, Reg):
                        base = repl.reg
                        rebased = True
                if index is not None and ("g", int(index)) in alias:
                    repl = alias[("g", int(index))]
                    if isinstance(repl, Reg):
                        index = repl.reg
                        rebased = True
                if rebased:
                    ops[i] = Mem(base, index, mem.scale, mem.disp)
                    changed = True
        new_insn = insn.with_operands(*ops) if changed else insn

        written = _written_key(new_insn)
        is_copy = (
            new_insn.op in (Op.MOV, Op.MOVSD)
            and len(new_insn.operands) == 2
            and _reg_key(new_insn.operands[0]) is not None
            and _reg_key(new_insn.operands[1]) is not None
        )
        forget(written)
        if is_copy and new_insn.operands[0] != new_insn.operands[1]:
            alias[_reg_key(new_insn.operands[0])] = new_insn.operands[1]  # type: ignore[index]
        if is_copy and new_insn.operands[0] == new_insn.operands[1]:
            continue  # self-copy after renaming: drop
        out.append(new_insn)
    return out
