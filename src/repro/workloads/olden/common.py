"""Shared helpers for the Olden kernels.

Includes the linear congruential generator used (identically) by the
assembly kernels and their Python mirror computations, so functional
results can be verified bit-for-bit.
"""

from __future__ import annotations

from ...isa.assembler import Assembler

LCG_A = 1664525
LCG_C = 1013904223
LCG_MASK = 0xFFFFFFFF


def lcg(seed: int) -> int:
    """One LCG step (Python mirror)."""
    return (seed * LCG_A + LCG_C) & LCG_MASK


def emit_lcg(a: Assembler, seed_reg: int, tmp: int) -> None:
    """Emit ``seed = seed * A + C  (mod 2^32)`` into the assembler."""
    a.li(tmp, LCG_A)
    a.mul(seed_reg, seed_reg, tmp)
    a.addi(seed_reg, seed_reg, LCG_C)
    a.andi(seed_reg, seed_reg, LCG_MASK)
