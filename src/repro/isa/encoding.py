"""Byte-level encoding and decoding of BX64 instructions.

Wire format (variable length, little-endian):

==========  =====================================================
byte 0      opcode (the :class:`~repro.isa.opcodes.Op` value)
byte 1      form byte: ``kind(operand1) | kind(operand2) << 4``
rest        operands, in order, each in its kind's wire format
==========  =====================================================

Operand kinds and wire formats:

====  =======  ==========================================================
kind  name     wire format
====  =======  ==========================================================
0     none     (absent)
1     gpr      1 byte register id
2     xmm      1 byte register id
3     imm32    4 bytes signed
4     imm64    8 bytes
5     mem      flags byte (bit0 base, bit1 index), [base], [index,
               scale], 4 bytes signed disp
6     rel32    4 bytes signed, relative to the *end* of the instruction
====  =======  ==========================================================

Branch/call targets are stored as ``rel32`` on the wire but exposed as
*absolute* addresses (``Imm``) in decoded form — the rewriter thinks in
absolute addresses and the emitter re-relativizes during relocation.

Crucially, an instruction's length depends only on its operand kinds and
immediate widths, never on a branch displacement value, so layout can be
computed in a single pass before relocation.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Sequence

from repro.errors import DecodeError, EncodingError, UndecodableError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op, OpClass, op_info
from repro.isa.operands import FReg, Imm, Label, Mem, Operand, Reg
from repro.isa.registers import GPR, XMM

K_NONE, K_GPR, K_XMM, K_IMM32, K_IMM64, K_MEM, K_REL32 = range(7)

# --------------------------------------------------------- shape validation
#
# The wire format pairs any opcode byte with any form byte, so adversarial
# bytes routinely decode into shapes no assembler would emit (``MOV`` with
# zero operands, ``RET`` with two, ``ADDSD`` on a GPR).  Downstream
# consumers — the interpreter, the block JIT, the tracer — would each fail
# on those in their own way (raw ``ValueError`` unpacking operands, wrong
# codegen...).  ``decode`` therefore checks the decoded operand tuple
# against a per-opcode signature and raises
# :class:`~repro.errors.UndecodableError` on mismatch, making every
# consumer reject garbage identically at the fetch boundary.
#
# Signature alphabet: G = integer register, X = float register,
# M = memory, I = immediate.  Each operand position is a string of the
# kinds acceptable there.

_G, _X, _M, _I = "G", "X", "M", "I"
_GM, _GMI, _XM, _XMI, _GX = "GM", "GMI", "XM", "XMI", "GX"

_SHAPES: dict[Op, tuple[str, ...]] = {
    Op.MOV: (_GM, _GMI),
    Op.LEA: (_G, _M),
    Op.PUSH: (_GMI,),
    Op.POP: (_GM,),
    Op.ADD: (_GM, _GMI), Op.SUB: (_GM, _GMI), Op.AND: (_GM, _GMI),
    Op.OR: (_GM, _GMI), Op.XOR: (_GM, _GMI), Op.IMUL: (_GM, _GMI),
    Op.NEG: (_GM,), Op.NOT: (_GM,), Op.INC: (_GM,), Op.DEC: (_GM,),
    Op.SHL: (_GM, _GMI), Op.SHR: (_GM, _GMI), Op.SAR: (_GM, _GMI),
    Op.IDIV: (_GM,),
    Op.CMP: (_GMI, _GMI), Op.TEST: (_GMI, _GMI),
    Op.MOVSD: (_XM, _XMI),
    Op.ADDSD: (_X, _XM), Op.SUBSD: (_X, _XM), Op.MULSD: (_X, _XM),
    Op.DIVSD: (_X, _XM), Op.SQRTSD: (_X, _XM),
    Op.UCOMISD: (_X, _XM),
    Op.CVTSI2SD: (_X, _GM), Op.CVTTSD2SI: (_G, _XM),
    Op.XORPD: (_X, _XM),
    Op.MOVQ: (_GX, _GX),
    Op.MOVUPD: (_XM, _XM),
    Op.ADDPD: (_X, _XM), Op.SUBPD: (_X, _XM), Op.MULPD: (_X, _XM),
    Op.HADDPD: (_X, _XM),
    Op.JMP: (_I,), Op.JMPI: (_G,),
    Op.CALL: (_I,), Op.CALLI: (_G,),
    Op.RET: (),
    Op.NOP: (), Op.HLT: (),
}
# Every SETcc takes one writable integer destination; every Jcc one
# (rel32-decoded) immediate target.
for _op in Op:
    _cls = op_info(_op).opclass
    if _cls is OpClass.SETCC:
        _SHAPES[_op] = (_GM,)
    elif _cls is OpClass.JCC:
        _SHAPES[_op] = (_I,)


def _operand_letter(operand: Operand) -> str:
    if isinstance(operand, Reg):
        return _G
    if isinstance(operand, FReg):
        return _X
    if isinstance(operand, Mem):
        return _M
    return _I


def shape_problem(op: Op, operands: tuple[Operand, ...]) -> str | None:
    """Why ``op`` can never execute with ``operands`` — or None if it can."""
    want = _SHAPES[op]
    if len(operands) != len(want):
        return (f"{op} takes {len(want)} operand(s), "
                f"decoded {len(operands)}")
    for i, (operand, allowed) in enumerate(zip(operands, want)):
        if _operand_letter(operand) not in allowed:
            return (f"operand {i + 1} of {op} cannot be "
                    f"{type(operand).__name__}")
    return None

_INT32_MIN, _INT32_MAX = -(1 << 31), (1 << 31) - 1

#: Opcodes whose immediate operand is a code address encoded rel32.
_REL_OPS = frozenset({Op.JMP, Op.CALL}) | {
    op for op in Op if op_info(op).opclass is OpClass.JCC
}


def _fits32(value: int) -> bool:
    """Does the canonical unsigned-64 immediate fit a signed 32-bit field?"""
    signed = value - (1 << 64) if value >= (1 << 63) else value
    return _INT32_MIN <= signed <= _INT32_MAX


def _operand_kind(insn: Instruction, i: int, operand: Operand) -> int:
    if isinstance(operand, Reg):
        return K_GPR
    if isinstance(operand, FReg):
        return K_XMM
    if isinstance(operand, Mem):
        return K_MEM
    if isinstance(operand, Label):
        raise EncodingError(f"unresolved label {operand} in {insn}")
    if isinstance(operand, Imm):
        if insn.op in _REL_OPS and i == 0:
            return K_REL32
        return K_IMM32 if _fits32(operand.value) else K_IMM64
    raise EncodingError(f"cannot encode operand {operand!r} of {insn}")


def _operand_size(kind: int, operand: Operand) -> int:
    if kind in (K_GPR, K_XMM):
        return 1
    if kind in (K_IMM32, K_REL32):
        return 4
    if kind == K_IMM64:
        return 8
    if kind == K_MEM:
        assert isinstance(operand, Mem)
        size = 1 + 4  # flags byte + disp
        if operand.base is not None:
            size += 1
        if operand.index is not None:
            size += 2  # index id + scale byte
        return size
    raise EncodingError(f"bad operand kind {kind}")  # pragma: no cover


def instruction_length(insn: Instruction) -> int:
    """Encoded length in bytes of ``insn`` (labels count as rel32)."""
    size = 2
    for i, operand in enumerate(insn.operands):
        if isinstance(operand, Label):
            size += 4  # will be a rel32
            continue
        kind = _operand_kind(insn, i, operand)
        size += _operand_size(kind, operand)
    return size


def encode(insn: Instruction, addr: int = 0) -> bytes:
    """Encode ``insn`` assuming it is placed at address ``addr``.

    ``addr`` only matters for branch/call instructions whose absolute
    target must be re-relativized.
    """
    if len(insn.operands) > 2:
        raise EncodingError(f"more than two operands in {insn}")
    kinds = [K_NONE, K_NONE]
    for i, operand in enumerate(insn.operands):
        kinds[i] = _operand_kind(insn, i, operand)
    out = bytearray((int(insn.op), kinds[0] | (kinds[1] << 4)))
    length = instruction_length(insn)
    for i, operand in enumerate(insn.operands):
        kind = kinds[i]
        if kind in (K_GPR, K_XMM):
            assert isinstance(operand, (Reg, FReg))
            out.append(int(operand.reg))
        elif kind == K_IMM32:
            assert isinstance(operand, Imm)
            out += struct.pack("<i", operand.signed)
        elif kind == K_IMM64:
            assert isinstance(operand, Imm)
            out += struct.pack("<Q", operand.value)
        elif kind == K_REL32:
            assert isinstance(operand, Imm)
            rel = operand.value - (addr + length)
            rel = rel - (1 << 64) if rel >= (1 << 63) else rel
            if not (_INT32_MIN <= rel <= _INT32_MAX):
                raise EncodingError(f"branch displacement out of range in {insn}")
            out += struct.pack("<i", rel)
        elif kind == K_MEM:
            assert isinstance(operand, Mem)
            flags = (1 if operand.base is not None else 0) | (
                2 if operand.index is not None else 0
            )
            out.append(flags)
            if operand.base is not None:
                out.append(int(operand.base))
            if operand.index is not None:
                out.append(int(operand.index))
                out.append(operand.scale)
            out += struct.pack("<i", operand.disp)
    assert len(out) == length, (insn, len(out), length)
    return bytes(out)


def decode(buf: bytes | bytearray | memoryview, addr: int = 0, offset: int = 0) -> Instruction:
    """Decode one instruction from ``buf`` at ``offset``.

    ``addr`` is the absolute address of the instruction (used to convert
    rel32 branch targets into absolute addresses).  Returns an
    :class:`Instruction` with ``addr`` and ``size`` populated.
    """
    view = memoryview(buf)
    try:
        opbyte = view[offset]
        form = view[offset + 1]
    except IndexError as exc:
        raise DecodeError("truncated instruction header", addr) from exc
    try:
        op = Op(opbyte)
    except ValueError as exc:
        raise DecodeError(f"unknown opcode byte 0x{opbyte:02x}", addr) from exc

    kinds = (form & 0x0F, form >> 4)
    pos = offset + 2
    operands: list[Operand] = []
    try:
        for kind in kinds:
            if kind == K_NONE:
                continue
            if kind == K_GPR:
                operands.append(Reg(GPR(view[pos])))
                pos += 1
            elif kind == K_XMM:
                operands.append(FReg(XMM(view[pos])))
                pos += 1
            elif kind == K_IMM32:
                (value,) = struct.unpack_from("<i", view, pos)
                operands.append(Imm(value))
                pos += 4
            elif kind == K_IMM64:
                (uvalue,) = struct.unpack_from("<Q", view, pos)
                operands.append(Imm(uvalue))
                pos += 8
            elif kind == K_REL32:
                (rel,) = struct.unpack_from("<i", view, pos)
                pos += 4
                # rel is relative to the end of the instruction; compute
                # the length first by continuing the scan (rel32 is always
                # the first operand for branch ops, and branch ops have at
                # most one operand, so pos is already the end).
                operands.append(Imm(addr + (pos - offset) + rel))
            elif kind == K_MEM:
                flags = view[pos]
                pos += 1
                base = index = None
                scale = 1
                if flags & 1:
                    base = GPR(view[pos])
                    pos += 1
                if flags & 2:
                    index = GPR(view[pos])
                    scale = view[pos + 1]
                    pos += 2
                (disp,) = struct.unpack_from("<i", view, pos)
                pos += 4
                operands.append(Mem(base, index, scale, disp))
            else:
                raise DecodeError(f"bad operand kind {kind}", addr)
    except (IndexError, struct.error) as exc:
        raise DecodeError("truncated instruction body", addr) from exc
    except ValueError as exc:  # bad register id / scale
        raise DecodeError(str(exc), addr) from exc

    problem = shape_problem(op, tuple(operands))
    if problem is not None:
        raise UndecodableError(problem, addr)
    return Instruction(op, tuple(operands), addr=addr, size=pos - offset)


def encode_program(
    instructions: Sequence[Instruction],
    base_addr: int = 0,
    extra_labels: dict[str, int] | None = None,
) -> tuple[bytes, dict[str, int]]:
    """Encode a straight-line sequence, resolving :class:`Label` operands.

    Labels are defined with pseudo-instructions: any instruction whose
    ``note`` equals ``"label:<name>"`` and whose op is ``NOP`` with no
    operands marks a position and emits no bytes.  (The higher-level
    :class:`repro.asm.builder.Builder` offers a friendlier interface;
    this function is the shared backend.)

    Returns ``(code, labels)`` where ``labels`` maps names to absolute
    addresses.
    """
    labels: dict[str, int] = dict(extra_labels or {})
    addr = base_addr
    placed: list[tuple[Instruction, int]] = []
    for insn in instructions:
        if insn.note.startswith("label:") and insn.op is Op.NOP and not insn.operands:
            labels[insn.note[6:]] = addr
            continue
        placed.append((insn, addr))
        addr += instruction_length(insn)

    out = bytearray()
    for insn, iaddr in placed:
        resolved = insn
        if any(isinstance(o, Label) for o in insn.operands):
            ops: list[Operand] = []
            for o in insn.operands:
                if isinstance(o, Label):
                    if o.name not in labels:
                        raise EncodingError(f"undefined label {o.name!r} in {insn}")
                    ops.append(Imm(labels[o.name]))
                else:
                    ops.append(o)
            resolved = insn.with_operands(*ops)
        out += encode(resolved, iaddr)
    return bytes(out), labels


def label_marker(name: str) -> Instruction:
    """The pseudo-instruction that defines label ``name`` for
    :func:`encode_program`."""
    return Instruction(Op.NOP, (), note=f"label:{name}")


def iter_decode(buf: bytes, base_addr: int) -> Iterable[Instruction]:
    """Decode ``buf`` from the beginning until exhausted."""
    pos = 0
    while pos < len(buf):
        insn = decode(buf, base_addr + pos, pos)
        assert insn.size is not None
        yield insn
        pos += insn.size
