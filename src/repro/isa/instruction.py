"""Static instruction representation."""

from __future__ import annotations

from .opcodes import BRANCH_OPS, Op
from .registers import reg_name

#: Base virtual address of the text segment; instruction *i* lives at
#: ``TEXT_BASE + 4 * i``.
TEXT_BASE = 0x0040_0000
WORD = 4


class Instruction:
    """One static mini-ISA instruction.

    ``target`` holds a label name until the program is assembled, after
    which it is resolved to an instruction index.  ``pad`` is the annotated
    load size-class (0 = unannotated); ``tag`` is a free-form marker used by
    workload builders (e.g. ``"lds"`` on linked-data-structure loads, which
    drives the Table-1 characterization).
    """

    __slots__ = ("op", "rd", "rs1", "rs2", "imm", "target", "pad", "tag", "index")

    def __init__(
        self,
        op: Op,
        rd: int = 0,
        rs1: int = 0,
        rs2: int = 0,
        imm: float | int = 0,
        target: str | int | None = None,
        pad: int = 0,
        tag: str | None = None,
    ) -> None:
        self.op = op
        self.rd = rd
        self.rs1 = rs1
        self.rs2 = rs2
        self.imm = imm
        self.target = target
        self.pad = pad
        self.tag = tag
        self.index = -1  # assigned at assembly

    @property
    def address(self) -> int:
        """Virtual address of this instruction."""
        return TEXT_BASE + WORD * self.index

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = [self.op.name.lower()]
        if self.op in (Op.LW, Op.SW, Op.PF, Op.JPF):
            reg = self.rd if self.op == Op.LW else self.rs2
            parts.append(f"{reg_name(reg)}, {self.imm}({reg_name(self.rs1)})")
            if self.pad:
                parts.append(f"[pad={self.pad}]")
        elif self.op in BRANCH_OPS:
            parts.append(
                f"{reg_name(self.rs1)}, {reg_name(self.rs2)}, {self.target}"
            )
        elif self.op in (Op.J, Op.JAL):
            parts.append(str(self.target))
        elif self.op == Op.JR:
            parts.append(reg_name(self.rs1))
        else:
            parts.append(
                f"{reg_name(self.rd)}, {reg_name(self.rs1)}, "
                f"{reg_name(self.rs2)}, imm={self.imm}"
            )
        if self.tag:
            parts.append(f"#{self.tag}")
        return " ".join(parts)
