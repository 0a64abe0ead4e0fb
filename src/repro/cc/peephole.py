"""Binary-level peephole pass (``-O1`` and above).

Operates on builder items *before* encoding, so it is shared by the
compiler and (optionally) the rewriter's post-capture pipeline.  All
rewrites preserve the one flags invariant minic codegen relies on:
a flag consumer (``jcc``/``setcc``) always directly follows its
producer (``cmp``/``test``/``ucomisd``), and no rewrite removes or
reorders a producer-consumer pair.
"""

from __future__ import annotations

from repro.isa.instruction import Instruction, ins
from repro.isa.opcodes import Op
from repro.isa.operands import Imm, Reg


def peephole(items: list[Instruction]) -> list[Instruction]:
    """Return a cleaned copy of ``items``."""
    out: list[Instruction] = []
    for insn in items:
        ops = insn.operands
        if insn.op is Op.MOV and len(ops) == 2 and ops[0] == ops[1]:
            continue  # mov r, r
        if (
            insn.op in (Op.ADD, Op.SUB)
            and len(ops) == 2
            and isinstance(ops[1], Imm)
            and ops[1].value == 0
        ):
            continue  # add/sub r, 0 (no consumer reads these flags; see module doc)
        if (
            insn.op in (Op.SHL, Op.SHR, Op.SAR)
            and isinstance(ops[1], Imm)
            and ops[1].value == 0
        ):
            continue
        if insn.op is Op.IMUL and len(ops) == 2 and isinstance(ops[1], Imm):
            value = ops[1].signed
            if value == 1:
                continue
            if value > 1 and value & (value - 1) == 0 and isinstance(ops[0], Reg):
                out.append(ins(Op.SHL, ops[0], Imm(value.bit_length() - 1), note=insn.note))
                continue
        out.append(insn)
    return out
