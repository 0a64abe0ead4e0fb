"""The decoded instruction form used throughout the toolchain.

The rewriter keeps captured instructions "in decoded form" (paper,
Sec. III.G) until final emission, so this type is the common currency of
the assembler, the interpreter, the tracer, and the optimization passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.isa.opcodes import Op, OpClass, OpInfo, op_info
from repro.isa.operands import FReg, Imm, Label, Mem, Operand, Reg

#: One-letter operand-kind tags attached at construction time so hot
#: consumers (interpreter dispatch, the block compiler) classify
#: operands without isinstance chains: r=Reg f=FReg i=Imm m=Mem l=Label.
_KIND_TAGS = {Reg: "r", FReg: "f", Imm: "i", Mem: "m", Label: "l"}


@dataclass(frozen=True)
class Instruction:
    """One BX64 instruction.

    ``addr`` and ``size`` are filled in by the decoder (or the final
    emitter) and are ``None`` for freshly built instructions.
    """

    op: Op
    operands: tuple[Operand, ...] = ()
    addr: int | None = None
    size: int | None = None
    # Free-form annotation used by the rewriter to tag provenance
    # ("inlined from 0x...", "compensation", ...); ignored by encoders.
    note: str = field(default="", compare=False)
    #: Original address this instruction derives from (set by the tracer
    #: on emitted instructions; None for synthetic compensation/hook
    #: code).  Feeds the debug map of Sec. VIII's debugging outlook.
    origin: int | None = field(default=None, compare=False)

    #: Static opcode metadata, resolved once at construction so the
    #: interpreter and block compiler never hit the registry per step.
    info: OpInfo = field(init=False, repr=False, compare=False)
    #: Operand-kind tag string, one char per operand (see _KIND_TAGS).
    kinds: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "info", op_info(self.op))
        object.__setattr__(
            self,
            "kinds",
            "".join(_KIND_TAGS.get(type(o), "?") for o in self.operands),
        )

    @property
    def opclass(self) -> OpClass:
        return self.info.opclass

    @property
    def writes_flags(self) -> bool:
        return self.info.writes_flags

    def with_operands(self, *operands: Operand) -> "Instruction":
        """A copy with different operands (drops addr/size)."""
        return Instruction(self.op, tuple(operands), note=self.note,
                           origin=self.origin)

    def with_note(self, note: str) -> "Instruction":
        return replace(self, note=note)

    def __str__(self) -> str:
        if not self.operands:
            return str(self.op)
        return f"{self.op} " + ", ".join(str(o) for o in self.operands)


def ins(op: Op, *operands: Operand, note: str = "") -> Instruction:
    """Shorthand constructor: ``ins(Op.ADD, Reg(RAX), Imm(1))``."""
    return Instruction(op, tuple(operands), note=note)
