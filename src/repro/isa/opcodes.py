"""Opcodes of the mini-ISA and their classification.

The ISA is a small RISC modelled on MIPS-I (the paper's target): 32
integer registers, 4-byte words, register+offset addressing.  Three
extensions carry the paper's mechanisms:

* ``PF``   — a non-binding software prefetch (completes at issue, may start
  TLB miss handling), used by the software JPP implementations.
* ``JPF``  — the cooperative jump-pointer prefetch: a single non-binding
  *indirect* prefetch. Hardware loads the word at ``rs1+imm`` (the
  jump-pointer), prefetches the block it names, and feeds the value to the
  dependence predictor so chained prefetches can be spawned (Section 3.2).
* annotated loads — ordinary ``LW`` instructions carry an optional ``pad``
  attribute, the paper's ``h8/h16/...`` load variants of Section 3.3: the
  referenced object's size rounded up to the next power of two, letting the
  hardware locate jump-pointer storage in allocator padding.
"""

from __future__ import annotations

import enum


class Op(enum.IntEnum):
    """All mini-ISA opcodes."""

    # Integer ALU (register-register)
    ADD = enum.auto()
    SUB = enum.auto()
    AND = enum.auto()
    OR = enum.auto()
    XOR = enum.auto()
    SLL = enum.auto()
    SRL = enum.auto()
    SRA = enum.auto()
    SLT = enum.auto()
    SLTU = enum.auto()
    # Integer ALU (register-immediate)
    ADDI = enum.auto()
    ANDI = enum.auto()
    ORI = enum.auto()
    XORI = enum.auto()
    SLLI = enum.auto()
    SRLI = enum.auto()
    SRAI = enum.auto()
    SLTI = enum.auto()
    # Integer multiply / divide
    MUL = enum.auto()
    DIV = enum.auto()
    REM = enum.auto()
    # Floating point
    FADD = enum.auto()
    FSUB = enum.auto()
    FNEG = enum.auto()
    FABS = enum.auto()
    FMUL = enum.auto()
    FDIV = enum.auto()
    FSQRT = enum.auto()
    FLT = enum.auto()   # rd = 1 if rs1 < rs2 else 0
    FLE = enum.auto()
    FEQ = enum.auto()
    I2F = enum.auto()
    F2I = enum.auto()
    # Memory
    LW = enum.auto()
    SW = enum.auto()
    PF = enum.auto()
    JPF = enum.auto()
    ALLOC = enum.auto()
    # Control
    BEQ = enum.auto()
    BNE = enum.auto()
    BLT = enum.auto()
    BGE = enum.auto()
    J = enum.auto()
    JAL = enum.auto()
    JR = enum.auto()
    HALT = enum.auto()
    NOP = enum.auto()


class FuClass(enum.IntEnum):
    """Functional unit classes (Table 2's pool)."""

    INT_ALU = 0
    INT_MUL = 1
    INT_DIV = 2
    FP_ADD = 3
    FP_MUL = 4
    FP_DIV = 5
    MEM_PORT = 6
    NONE = 7


INT_RR_OPS = frozenset({
    Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.SLL, Op.SRL, Op.SRA,
    Op.SLT, Op.SLTU,
})
INT_RI_OPS = frozenset({
    Op.ADDI, Op.ANDI, Op.ORI, Op.XORI, Op.SLLI, Op.SRLI, Op.SRAI, Op.SLTI,
})
FP_ADD_OPS = frozenset({
    Op.FADD, Op.FSUB, Op.FNEG, Op.FABS, Op.FLT, Op.FLE, Op.FEQ, Op.I2F, Op.F2I,
})
BRANCH_OPS = frozenset({Op.BEQ, Op.BNE, Op.BLT, Op.BGE})
JUMP_OPS = frozenset({Op.J, Op.JAL, Op.JR})
CONTROL_OPS = BRANCH_OPS | JUMP_OPS
MEM_OPS = frozenset({Op.LW, Op.SW, Op.PF, Op.JPF})


#: Functional-unit class executing each opcode.
FU_CLASS: dict[Op, FuClass] = {}
for _op in INT_RR_OPS | INT_RI_OPS | CONTROL_OPS | {Op.ALLOC}:
    FU_CLASS[_op] = FuClass.INT_ALU
FU_CLASS[Op.MUL] = FuClass.INT_MUL
FU_CLASS[Op.DIV] = FuClass.INT_DIV
FU_CLASS[Op.REM] = FuClass.INT_DIV
for _op in FP_ADD_OPS:
    FU_CLASS[_op] = FuClass.FP_ADD
FU_CLASS[Op.FMUL] = FuClass.FP_MUL
FU_CLASS[Op.FDIV] = FuClass.FP_DIV
FU_CLASS[Op.FSQRT] = FuClass.FP_DIV
for _op in MEM_OPS:
    FU_CLASS[_op] = FuClass.MEM_PORT
FU_CLASS[Op.HALT] = FuClass.NONE
FU_CLASS[Op.NOP] = FuClass.NONE
del _op
