"""Opcode enumeration and per-opcode metadata for BX64.

The numeric value of each :class:`Op` member is its encoding byte, so the
enum doubles as the opcode map of the binary format.  :func:`op_info`
returns static metadata the encoder, the interpreter, and the rewriter's
tracer all share: instruction class, whether the instruction writes the
condition flags, and (for ``Jcc``/``SETcc``) which condition it evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum

from repro.isa.flags import Cond


class OpClass(Enum):
    """Coarse instruction classes used for dispatch and costing."""

    MOV = "mov"          # integer data movement
    LEA = "lea"
    PUSH = "push"
    POP = "pop"
    ALU = "alu"          # integer ALU writing a destination
    MUL = "mul"
    DIV = "div"
    SHIFT = "shift"
    CMP = "cmp"          # flag-only integer ops (CMP/TEST)
    SETCC = "setcc"
    FMOV = "fmov"        # scalar double movement
    FALU = "falu"        # scalar double arithmetic
    FDIV = "fdiv"
    FCMP = "fcmp"        # UCOMISD
    FCVT = "fcvt"
    BITMOV = "bitmov"    # MOVQ between GPR and XMM
    VMOV = "vmov"        # packed double movement
    VALU = "valu"        # packed double arithmetic
    JMP = "jmp"
    JCC = "jcc"
    CALL = "call"
    RET = "ret"
    NOP = "nop"
    HLT = "hlt"


class Op(IntEnum):
    """All BX64 opcodes; the value is the first encoding byte."""

    # integer movement / address
    MOV = 0x01
    LEA = 0x02
    PUSH = 0x03
    POP = 0x04
    # integer ALU
    ADD = 0x10
    SUB = 0x11
    AND = 0x12
    OR = 0x13
    XOR = 0x14
    IMUL = 0x15
    NEG = 0x16
    NOT = 0x17
    INC = 0x18
    DEC = 0x19
    SHL = 0x1A
    SHR = 0x1B
    SAR = 0x1C
    IDIV = 0x1D
    CMP = 0x1E
    TEST = 0x1F
    # SETcc
    SETE = 0x20
    SETNE = 0x21
    SETL = 0x22
    SETLE = 0x23
    SETG = 0x24
    SETGE = 0x25
    SETB = 0x26
    SETBE = 0x27
    SETA = 0x28
    SETAE = 0x29
    SETS = 0x2A
    SETNS = 0x2B
    # scalar double
    MOVSD = 0x30
    ADDSD = 0x31
    SUBSD = 0x32
    MULSD = 0x33
    DIVSD = 0x34
    SQRTSD = 0x35
    UCOMISD = 0x36
    CVTSI2SD = 0x37
    CVTTSD2SI = 0x38
    XORPD = 0x39
    MOVQ = 0x3A
    # packed double (2 lanes)
    MOVUPD = 0x40
    ADDPD = 0x41
    SUBPD = 0x42
    MULPD = 0x43
    HADDPD = 0x44
    # control
    JMP = 0x50
    JMPI = 0x51   # indirect jump through a GPR
    CALL = 0x52
    CALLI = 0x53  # indirect call through a GPR
    RET = 0x54
    # Jcc
    JE = 0x60
    JNE = 0x61
    JL = 0x62
    JLE = 0x63
    JG = 0x64
    JGE = 0x65
    JB = 0x66
    JBE = 0x67
    JA = 0x68
    JAE = 0x69
    JS = 0x6A
    JNS = 0x6B
    # misc
    NOP = 0x70
    HLT = 0x71

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name.lower()


@dataclass(frozen=True)
class OpInfo:
    """Static metadata for one opcode."""

    opclass: OpClass
    writes_flags: bool = False
    cond: Cond | None = None


_ALU = OpInfo(OpClass.ALU, writes_flags=True)

_INFO: dict[Op, OpInfo] = {
    Op.MOV: OpInfo(OpClass.MOV),
    Op.LEA: OpInfo(OpClass.LEA),
    Op.PUSH: OpInfo(OpClass.PUSH),
    Op.POP: OpInfo(OpClass.POP),
    Op.ADD: _ALU,
    Op.SUB: _ALU,
    Op.AND: _ALU,
    Op.OR: _ALU,
    Op.XOR: _ALU,
    Op.IMUL: OpInfo(OpClass.MUL, writes_flags=True),
    Op.NEG: _ALU,
    Op.NOT: OpInfo(OpClass.ALU, writes_flags=False),
    Op.INC: _ALU,
    Op.DEC: _ALU,
    Op.SHL: OpInfo(OpClass.SHIFT, writes_flags=True),
    Op.SHR: OpInfo(OpClass.SHIFT, writes_flags=True),
    Op.SAR: OpInfo(OpClass.SHIFT, writes_flags=True),
    Op.IDIV: OpInfo(OpClass.DIV, writes_flags=True),
    Op.CMP: OpInfo(OpClass.CMP, writes_flags=True),
    Op.TEST: OpInfo(OpClass.CMP, writes_flags=True),
    Op.SETE: OpInfo(OpClass.SETCC, cond=Cond.E),
    Op.SETNE: OpInfo(OpClass.SETCC, cond=Cond.NE),
    Op.SETL: OpInfo(OpClass.SETCC, cond=Cond.L),
    Op.SETLE: OpInfo(OpClass.SETCC, cond=Cond.LE),
    Op.SETG: OpInfo(OpClass.SETCC, cond=Cond.G),
    Op.SETGE: OpInfo(OpClass.SETCC, cond=Cond.GE),
    Op.SETB: OpInfo(OpClass.SETCC, cond=Cond.B),
    Op.SETBE: OpInfo(OpClass.SETCC, cond=Cond.BE),
    Op.SETA: OpInfo(OpClass.SETCC, cond=Cond.A),
    Op.SETAE: OpInfo(OpClass.SETCC, cond=Cond.AE),
    Op.SETS: OpInfo(OpClass.SETCC, cond=Cond.S),
    Op.SETNS: OpInfo(OpClass.SETCC, cond=Cond.NS),
    Op.MOVSD: OpInfo(OpClass.FMOV),
    Op.ADDSD: OpInfo(OpClass.FALU),
    Op.SUBSD: OpInfo(OpClass.FALU),
    Op.MULSD: OpInfo(OpClass.FALU),
    Op.DIVSD: OpInfo(OpClass.FDIV),
    Op.SQRTSD: OpInfo(OpClass.FDIV),
    Op.UCOMISD: OpInfo(OpClass.FCMP, writes_flags=True),
    Op.CVTSI2SD: OpInfo(OpClass.FCVT),
    Op.CVTTSD2SI: OpInfo(OpClass.FCVT),
    Op.XORPD: OpInfo(OpClass.FMOV),
    Op.MOVQ: OpInfo(OpClass.BITMOV),
    Op.MOVUPD: OpInfo(OpClass.VMOV),
    Op.ADDPD: OpInfo(OpClass.VALU),
    Op.SUBPD: OpInfo(OpClass.VALU),
    Op.MULPD: OpInfo(OpClass.VALU),
    Op.HADDPD: OpInfo(OpClass.VALU),
    Op.JMP: OpInfo(OpClass.JMP),
    Op.JMPI: OpInfo(OpClass.JMP),
    Op.CALL: OpInfo(OpClass.CALL),
    Op.CALLI: OpInfo(OpClass.CALL),
    Op.RET: OpInfo(OpClass.RET),
    Op.JE: OpInfo(OpClass.JCC, cond=Cond.E),
    Op.JNE: OpInfo(OpClass.JCC, cond=Cond.NE),
    Op.JL: OpInfo(OpClass.JCC, cond=Cond.L),
    Op.JLE: OpInfo(OpClass.JCC, cond=Cond.LE),
    Op.JG: OpInfo(OpClass.JCC, cond=Cond.G),
    Op.JGE: OpInfo(OpClass.JCC, cond=Cond.GE),
    Op.JB: OpInfo(OpClass.JCC, cond=Cond.B),
    Op.JBE: OpInfo(OpClass.JCC, cond=Cond.BE),
    Op.JA: OpInfo(OpClass.JCC, cond=Cond.A),
    Op.JAE: OpInfo(OpClass.JCC, cond=Cond.AE),
    Op.JS: OpInfo(OpClass.JCC, cond=Cond.S),
    Op.JNS: OpInfo(OpClass.JCC, cond=Cond.NS),
    Op.NOP: OpInfo(OpClass.NOP),
    Op.HLT: OpInfo(OpClass.HLT),
}

#: Jcc opcode for each condition code (used by builders and the rewriter).
JCC_FOR_COND: dict[Cond, Op] = {
    _INFO[op].cond: op for op in Op if _INFO[op].opclass is OpClass.JCC  # type: ignore[misc]
}

#: SETcc opcode for each condition code.
SETCC_FOR_COND: dict[Cond, Op] = {
    _INFO[op].cond: op for op in Op if _INFO[op].opclass is OpClass.SETCC  # type: ignore[misc]
}


def op_info(op: Op) -> OpInfo:
    """Metadata for ``op`` (raises ``KeyError`` for an unknown opcode)."""
    return _INFO[op]
