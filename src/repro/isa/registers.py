"""Register file of the BX64 ISA.

Sixteen 64-bit general purpose registers carrying the x86-64 names, and
sixteen XMM registers.  An XMM register holds two 64-bit double lanes;
scalar-double (``*SD``) instructions use lane 0 only, packed (``*PD``)
instructions use both — which is what the greedy vectorization pass
(Sec. IV of the paper, "future work") exploits.

Only register *identity* lives here.  Which registers carry arguments and
which are callee-saved is ABI policy and lives in :mod:`repro.abi.callconv`.
"""

from __future__ import annotations

from enum import IntEnum


class GPR(IntEnum):
    """General purpose 64-bit registers, numbered like x86-64 encodings."""

    RAX = 0
    RCX = 1
    RDX = 2
    RBX = 3
    RSP = 4
    RBP = 5
    RSI = 6
    RDI = 7
    R8 = 8
    R9 = 9
    R10 = 10
    R11 = 11
    R12 = 12
    R13 = 13
    R14 = 14
    R15 = 15

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name.lower()


class XMM(IntEnum):
    """SIMD registers; each holds 2 double lanes (lane 0 is the scalar lane)."""

    XMM0 = 0
    XMM1 = 1
    XMM2 = 2
    XMM3 = 3
    XMM4 = 4
    XMM5 = 5
    XMM6 = 6
    XMM7 = 7
    XMM8 = 8
    XMM9 = 9
    XMM10 = 10
    XMM11 = 11
    XMM12 = 12
    XMM13 = 13
    XMM14 = 14
    XMM15 = 15

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name.lower()


# Convenient module-level aliases (mirrors how asm code reads).
RAX, RCX, RDX, RBX = GPR.RAX, GPR.RCX, GPR.RDX, GPR.RBX
RSP, RBP, RSI, RDI = GPR.RSP, GPR.RBP, GPR.RSI, GPR.RDI
R8, R9, R10, R11 = GPR.R8, GPR.R9, GPR.R10, GPR.R11
R12, R13, R14, R15 = GPR.R12, GPR.R13, GPR.R14, GPR.R15

GPR_NAMES = {r.name.lower(): r for r in GPR}
XMM_NAMES = {x.name.lower(): x for x in XMM}
