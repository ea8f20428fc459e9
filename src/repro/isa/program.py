"""Assembled program container."""

from __future__ import annotations

from ..errors import AssemblyError
from .instruction import Instruction
from .opcodes import Op

#: Default segment layout (word-aligned virtual addresses).
DATA_BASE = 0x1000_0000
HEAP_BASE = 0x2000_0000
STACK_TOP = 0x7FFF_F000


class Program:
    """A fully assembled mini-ISA program.

    Holds the resolved instruction list, the entry point, the initial data
    image (word address -> value) produced by the assembler's static-data
    helpers, and segment layout constants used by the interpreter to place
    the heap and stack.
    """

    def __init__(
        self,
        instructions: list[Instruction],
        labels: dict[str, int],
        initial_memory: dict[int, int | float],
        entry: int = 0,
        heap_base: int = HEAP_BASE,
        stack_top: int = STACK_TOP,
        name: str = "program",
    ) -> None:
        self.instructions = instructions
        self.labels = labels
        self.initial_memory = initial_memory
        self.entry = entry
        self.heap_base = heap_base
        self.stack_top = stack_top
        self.name = name
        self._resolve()

    def _resolve(self) -> None:
        for i, inst in enumerate(self.instructions):
            inst.index = i
            if inst.target is not None and not isinstance(inst.target, int):
                label = inst.target
                if label not in self.labels:
                    raise AssemblyError(
                        f"{self.name}: undefined label {label!r} at instruction {i}"
                    )
                inst.target = self.labels[label]
        if not any(inst.op == Op.HALT for inst in self.instructions):
            raise AssemblyError(f"{self.name}: program has no HALT instruction")

    def __len__(self) -> int:
        return len(self.instructions)

    def disassemble(self, start: int = 0, count: int | None = None) -> str:
        """Textual listing of the program, labels included: the view to
        read when a workload builder emits the wrong code, e.g.
        ``print(get_workload("treeadd").build("baseline").program
        .disassemble(0, 40))``."""
        end = len(self.instructions) if count is None else start + count
        by_index = {idx: name for name, idx in self.labels.items()}
        lines = []
        for i in range(start, min(end, len(self.instructions))):
            if i in by_index:
                lines.append(f"{by_index[i]}:")
            lines.append(f"  {i:6d}  {self.instructions[i]!r}")
        return "\n".join(lines)
