"""Pure value/flag semantics of BX64 opcodes.

These functions are shared verbatim by the interpreter
(:mod:`repro.machine.cpu`) and the rewriter's tracer
(:mod:`repro.core.tracer`): the paper's rewriting-by-tracing only works if
"emulating" an operation on known values produces exactly the result the
real execution would — any divergence is a miscompile.  Keeping the
semantics in one pure module makes that property testable directly
(see ``tests/isa/test_semantics.py``).

Integers are canonically unsigned 64-bit (two's complement); doubles are
Python floats; packed values are 2-tuples of floats.
"""

from __future__ import annotations

import math
import struct

from repro.errors import CpuError
from repro.isa.flags import Flag
from repro.isa.opcodes import Op

MASK64 = (1 << 64) - 1
SIGN_BIT = 1 << 63

Flags = dict[Flag, bool]


def to_signed(value: int) -> int:
    """Signed view of a canonical unsigned 64-bit value."""
    value &= MASK64
    return value - (1 << 64) if value & SIGN_BIT else value


def to_unsigned(value: int) -> int:
    """Canonical unsigned 64-bit view of any Python int."""
    return value & MASK64


def _zf_sf(result: int) -> tuple[bool, bool]:
    return result == 0, bool(result & SIGN_BIT)


def flags_add(a: int, b: int, result: int) -> Flags:
    """Flags after an addition (carry and signed-overflow included)."""
    zf, sf = _zf_sf(result)
    cf = (a + b) > MASK64
    of = (to_signed(a) + to_signed(b)) != to_signed(result)
    return {Flag.ZF: zf, Flag.SF: sf, Flag.CF: cf, Flag.OF: of}


def flags_sub(a: int, b: int, result: int) -> Flags:
    """Flags after a subtraction (CF = borrow)."""
    zf, sf = _zf_sf(result)
    cf = a < b  # borrow
    of = (to_signed(a) - to_signed(b)) != to_signed(result)
    return {Flag.ZF: zf, Flag.SF: sf, Flag.CF: cf, Flag.OF: of}


def flags_logic(result: int) -> Flags:
    """Flags after a logical op: ZF/SF from the result, CF/OF cleared."""
    zf, sf = _zf_sf(result)
    return {Flag.ZF: zf, Flag.SF: sf, Flag.CF: False, Flag.OF: False}


def int_binop(op: Op, a: int, b: int) -> tuple[int, Flags]:
    """Binary integer ALU op: returns ``(result, flags)``.

    ``CMP`` behaves like ``SUB`` and ``TEST`` like ``AND``; their callers
    discard the result.  Shift counts are taken mod 64 (x86 masks to 6
    bits in 64-bit mode).
    """
    a, b = to_unsigned(a), to_unsigned(b)
    if op is Op.ADD:
        result = (a + b) & MASK64
        return result, flags_add(a, b, result)
    if op in (Op.SUB, Op.CMP):
        result = (a - b) & MASK64
        return result, flags_sub(a, b, result)
    if op in (Op.AND, Op.TEST):
        result = a & b
        return result, flags_logic(result)
    if op is Op.OR:
        result = a | b
        return result, flags_logic(result)
    if op is Op.XOR:
        result = a ^ b
        return result, flags_logic(result)
    if op is Op.IMUL:
        full = to_signed(a) * to_signed(b)
        result = to_unsigned(full)
        overflow = full != to_signed(result)
        zf, sf = _zf_sf(result)
        return result, {Flag.ZF: zf, Flag.SF: sf, Flag.CF: overflow, Flag.OF: overflow}
    if op is Op.SHL:
        count = b & 63
        result = (a << count) & MASK64
        return result, flags_logic(result)
    if op is Op.SHR:
        count = b & 63
        result = a >> count
        return result, flags_logic(result)
    if op is Op.SAR:
        count = b & 63
        result = to_unsigned(to_signed(a) >> count)
        return result, flags_logic(result)
    raise CpuError(f"not an integer binop: {op}")


def int_unop(op: Op, a: int) -> tuple[int, Flags | None]:
    """Unary integer op: returns ``(result, flags-or-None)``.

    ``NOT`` does not write flags (as on x86); all others do.
    """
    a = to_unsigned(a)
    if op is Op.NEG:
        result = (-a) & MASK64
        flags = flags_sub(0, a, result)
        return result, flags
    if op is Op.NOT:
        return a ^ MASK64, None
    if op is Op.INC:
        result = (a + 1) & MASK64
        return result, flags_add(a, 1, result)
    if op is Op.DEC:
        result = (a - 1) & MASK64
        return result, flags_sub(a, 1, result)
    raise CpuError(f"not an integer unop: {op}")


def idiv(a: int, b: int) -> tuple[int, int]:
    """Signed division with C semantics (truncation toward zero).

    Returns ``(quotient, remainder)`` as canonical unsigned values.
    Raises :class:`CpuError` on division by zero, mirroring the hardware
    ``#DE`` fault.
    """
    sb = to_signed(b)
    if sb == 0:
        raise CpuError("integer division by zero")
    sa = to_signed(a)
    quot = int(sa / sb) if sb != 0 else 0  # trunc toward zero
    # math.trunc of float loses precision for big ints; do it exactly:
    quot = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        quot = -quot
    rem = sa - quot * sb
    return to_unsigned(quot), to_unsigned(rem)


def float_binop(op: Op, a: float, b: float) -> float:
    """Scalar double arithmetic."""
    if op is Op.ADDSD:
        return a + b
    if op is Op.SUBSD:
        return a - b
    if op is Op.MULSD:
        return a * b
    if op is Op.DIVSD:
        if b == 0.0:
            return math.inf if a > 0 else (-math.inf if a < 0 else math.nan)
        return a / b
    raise CpuError(f"not a float binop: {op}")


def float_sqrt(a: float) -> float:
    """SQRTSD semantics (NaN for negative inputs)."""
    return math.nan if a < 0 else math.sqrt(a)


def ucomisd_flags(a: float, b: float) -> Flags:
    """UCOMISD flag semantics (unordered sets ZF and CF, as on x86)."""
    if math.isnan(a) or math.isnan(b):
        return {Flag.ZF: True, Flag.SF: False, Flag.CF: True, Flag.OF: False}
    return {
        Flag.ZF: a == b,
        Flag.SF: False,
        Flag.CF: a < b,
        Flag.OF: False,
    }


def cvtsi2sd(a: int) -> float:
    """Signed 64-bit integer to double."""
    return float(to_signed(a))


def cvttsd2si(a: float) -> int:
    """Truncating double→int64; out-of-range yields the x86 sentinel."""
    if math.isnan(a) or a >= 2.0**63 or a < -(2.0**63):
        return SIGN_BIT  # x86's 0x8000000000000000 "integer indefinite"
    return to_unsigned(int(a))


Packed = tuple[float, float]

_PACKED = struct.Struct("<dd")


def packed_binop(op: Op, a: Packed, b: Packed) -> Packed:
    """Packed-double (2-lane) arithmetic."""
    if op is Op.ADDPD:
        return (a[0] + b[0], a[1] + b[1])
    if op is Op.SUBPD:
        return (a[0] - b[0], a[1] - b[1])
    if op is Op.MULPD:
        return (a[0] * b[0], a[1] * b[1])
    if op is Op.HADDPD:
        # x86 HADDPD: dst = (dst0+dst1, src0+src1)
        return (a[0] + a[1], b[0] + b[1])
    raise CpuError(f"not a packed binop: {op}")


def xorpd(a: Packed, b: Packed) -> Packed:
    """XORPD: bitwise xor of both lanes' IEEE-754 bytes (exact for signed
    zeros and NaN payloads, which float arithmetic would not keep)."""
    pa = _PACKED.pack(*a)
    pb = _PACKED.pack(*b)
    return _PACKED.unpack(bytes(x ^ y for x, y in zip(pa, pb)))
