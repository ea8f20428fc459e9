"""A builder DSL for writing mini-ISA programs from Python.

Workload kernels are written against this class.  It provides one method
per opcode, pseudo-instructions (``li``, ``mov``, ...), stack/call macros,
and static-data helpers.  ``assemble()`` produces an immutable
:class:`~repro.isa.program.Program`.

Example::

    a = Assembler()
    a.label("loop")
    a.lw(T0, A0, 4, tag="lds")       # t0 = a0->next
    a.beq(T0, ZERO, "done")
    a.mov(A0, T0)
    a.j("loop")
    a.label("done")
    a.halt()
    program = a.assemble("list_walk")
"""

from __future__ import annotations

from ..errors import AssemblyError
from .instruction import WORD, Instruction
from .opcodes import Op
from .program import DATA_BASE, HEAP_BASE, STACK_TOP, Program
from .registers import RA, SP, ZERO


class Assembler:
    """Incrementally builds a program; see module docstring."""

    def __init__(
        self,
        data_base: int = DATA_BASE,
        heap_base: int = HEAP_BASE,
        stack_top: int = STACK_TOP,
    ) -> None:
        self._insts: list[Instruction] = []
        self._labels: dict[str, int] = {}
        self._memory: dict[int, int | float] = {}
        self._data_cursor = data_base
        self._heap_base = heap_base
        self._stack_top = stack_top
        self._gensym = 0

    # ------------------------------------------------------------------
    # Labels and assembly
    # ------------------------------------------------------------------

    def label(self, name: str) -> str:
        """Define ``name`` at the current position."""
        if name in self._labels:
            raise AssemblyError(f"duplicate label {name!r}")
        self._labels[name] = len(self._insts)
        return name

    def newlabel(self, prefix: str = "L") -> str:
        """Generate a fresh, unique label name (not yet placed)."""
        self._gensym += 1
        return f".{prefix}_{self._gensym}"

    @property
    def here(self) -> int:
        """Index of the next instruction to be emitted."""
        return len(self._insts)

    def assemble(self, name: str = "program") -> Program:
        return Program(
            instructions=self._insts,
            labels=self._labels,
            initial_memory=dict(self._memory),
            entry=self._labels.get("main", 0),
            heap_base=self._heap_base,
            stack_top=self._stack_top,
            name=name,
        )

    # ------------------------------------------------------------------
    # Static data
    # ------------------------------------------------------------------

    def word(self, value: int | float = 0) -> int:
        """Reserve one initialized word in the data segment; returns address."""
        addr = self._data_cursor
        self._memory[addr] = value
        self._data_cursor += WORD
        return addr

    def array(self, values: list[int | float]) -> int:
        """Reserve a contiguous initialized array; returns base address."""
        base = self._data_cursor
        for v in values:
            self._memory[self._data_cursor] = v
            self._data_cursor += WORD
        return base

    def space(self, nwords: int) -> int:
        """Reserve ``nwords`` zero-initialized words; returns base address."""
        return self.array([0] * nwords)

    def poke(self, addr: int, value: int | float) -> None:
        """Overwrite one word of the initial data image (e.g. to link
        statically laid out records after reserving them)."""
        if addr % WORD:
            raise AssemblyError(f"poke to misaligned address {addr:#x}")
        self._memory[addr] = value

    # ------------------------------------------------------------------
    # Raw emit
    # ------------------------------------------------------------------

    def emit(self, inst: Instruction) -> Instruction:
        self._insts.append(inst)
        return inst

    def _rr(self, op: Op, rd: int, rs1: int, rs2: int, tag: str | None = None) -> Instruction:
        return self.emit(Instruction(op, rd=rd, rs1=rs1, rs2=rs2, tag=tag))

    def _ri(self, op: Op, rd: int, rs1: int, imm: int | float, tag: str | None = None) -> Instruction:
        return self.emit(Instruction(op, rd=rd, rs1=rs1, imm=imm, tag=tag))

    # ------------------------------------------------------------------
    # Integer ALU
    # ------------------------------------------------------------------

    def add(self, rd: int, rs1: int, rs2: int) -> Instruction:
        return self._rr(Op.ADD, rd, rs1, rs2)

    def sub(self, rd: int, rs1: int, rs2: int) -> Instruction:
        return self._rr(Op.SUB, rd, rs1, rs2)

    def and_(self, rd: int, rs1: int, rs2: int) -> Instruction:
        return self._rr(Op.AND, rd, rs1, rs2)

    def or_(self, rd: int, rs1: int, rs2: int) -> Instruction:
        return self._rr(Op.OR, rd, rs1, rs2)

    def xor(self, rd: int, rs1: int, rs2: int) -> Instruction:
        return self._rr(Op.XOR, rd, rs1, rs2)

    def sll(self, rd: int, rs1: int, rs2: int) -> Instruction:
        return self._rr(Op.SLL, rd, rs1, rs2)

    def srl(self, rd: int, rs1: int, rs2: int) -> Instruction:
        return self._rr(Op.SRL, rd, rs1, rs2)

    def slt(self, rd: int, rs1: int, rs2: int) -> Instruction:
        return self._rr(Op.SLT, rd, rs1, rs2)

    def addi(self, rd: int, rs1: int, imm: int) -> Instruction:
        return self._ri(Op.ADDI, rd, rs1, imm)

    def andi(self, rd: int, rs1: int, imm: int) -> Instruction:
        return self._ri(Op.ANDI, rd, rs1, imm)

    def ori(self, rd: int, rs1: int, imm: int) -> Instruction:
        return self._ri(Op.ORI, rd, rs1, imm)

    def xori(self, rd: int, rs1: int, imm: int) -> Instruction:
        return self._ri(Op.XORI, rd, rs1, imm)

    def slli(self, rd: int, rs1: int, imm: int) -> Instruction:
        return self._ri(Op.SLLI, rd, rs1, imm)

    def srli(self, rd: int, rs1: int, imm: int) -> Instruction:
        return self._ri(Op.SRLI, rd, rs1, imm)

    def slti(self, rd: int, rs1: int, imm: int) -> Instruction:
        return self._ri(Op.SLTI, rd, rs1, imm)

    def mul(self, rd: int, rs1: int, rs2: int) -> Instruction:
        return self._rr(Op.MUL, rd, rs1, rs2)

    def div(self, rd: int, rs1: int, rs2: int) -> Instruction:
        return self._rr(Op.DIV, rd, rs1, rs2)

    def rem(self, rd: int, rs1: int, rs2: int) -> Instruction:
        return self._rr(Op.REM, rd, rs1, rs2)

    # Pseudo-instructions -------------------------------------------------

    def li(self, rd: int, value: int | float) -> Instruction:
        """Load immediate (assembles to ``addi rd, zero, value``)."""
        return self._ri(Op.ADDI, rd, ZERO, value)

    def mov(self, rd: int, rs: int) -> Instruction:
        return self._rr(Op.ADD, rd, rs, ZERO)

    def neg(self, rd: int, rs: int) -> Instruction:
        return self._rr(Op.SUB, rd, ZERO, rs)

    def nop(self) -> Instruction:
        return self.emit(Instruction(Op.NOP))

    # ------------------------------------------------------------------
    # Floating point
    # ------------------------------------------------------------------

    def fadd(self, rd: int, rs1: int, rs2: int) -> Instruction:
        return self._rr(Op.FADD, rd, rs1, rs2)

    def fsub(self, rd: int, rs1: int, rs2: int) -> Instruction:
        return self._rr(Op.FSUB, rd, rs1, rs2)

    def fneg(self, rd: int, rs: int) -> Instruction:
        return self._rr(Op.FNEG, rd, rs, ZERO)

    def fabs(self, rd: int, rs: int) -> Instruction:
        return self._rr(Op.FABS, rd, rs, ZERO)

    def fmul(self, rd: int, rs1: int, rs2: int) -> Instruction:
        return self._rr(Op.FMUL, rd, rs1, rs2)

    def fdiv(self, rd: int, rs1: int, rs2: int) -> Instruction:
        return self._rr(Op.FDIV, rd, rs1, rs2)

    def fsqrt(self, rd: int, rs: int) -> Instruction:
        return self._rr(Op.FSQRT, rd, rs, ZERO)

    def flt(self, rd: int, rs1: int, rs2: int) -> Instruction:
        return self._rr(Op.FLT, rd, rs1, rs2)

    def fle(self, rd: int, rs1: int, rs2: int) -> Instruction:
        return self._rr(Op.FLE, rd, rs1, rs2)

    def feq(self, rd: int, rs1: int, rs2: int) -> Instruction:
        return self._rr(Op.FEQ, rd, rs1, rs2)

    def i2f(self, rd: int, rs: int) -> Instruction:
        return self._rr(Op.I2F, rd, rs, ZERO)

    def f2i(self, rd: int, rs: int) -> Instruction:
        return self._rr(Op.F2I, rd, rs, ZERO)

    def fli(self, rd: int, value: float) -> Instruction:
        """Load floating-point immediate."""
        return self._ri(Op.ADDI, rd, ZERO, float(value))

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------

    def lw(
        self, rd: int, base: int, off: int = 0, pad: int = 0, tag: str | None = None
    ) -> Instruction:
        """``rd = mem[base + off]``.

        ``pad`` is the annotated-load size class (paper Section 3.3); ``tag``
        marks the load for characterization (e.g. ``"lds"``).
        """
        return self.emit(Instruction(Op.LW, rd=rd, rs1=base, imm=off, pad=pad, tag=tag))

    def sw(self, src: int, base: int, off: int = 0, tag: str | None = None) -> Instruction:
        """``mem[base + off] = src``."""
        return self.emit(Instruction(Op.SW, rs1=base, rs2=src, imm=off, tag=tag))

    def pf(self, base: int, off: int = 0, tag: str | None = None) -> Instruction:
        """Non-binding prefetch of address ``base + off``."""
        return self.emit(Instruction(Op.PF, rs1=base, imm=off, tag=tag))

    def jpf(self, base: int, off: int = 0, tag: str | None = None) -> Instruction:
        """Cooperative jump-pointer prefetch (indirect through ``mem[base+off]``)."""
        return self.emit(Instruction(Op.JPF, rs1=base, imm=off, tag=tag))

    def alloc(self, rd: int, size_reg: int = ZERO, size_imm: int = 0) -> Instruction:
        """``rd = malloc(size_reg + size_imm)`` via the size-class allocator."""
        return self.emit(Instruction(Op.ALLOC, rd=rd, rs1=size_reg, imm=size_imm))

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------

    def beq(self, rs1: int, rs2: int, target: str) -> Instruction:
        return self.emit(Instruction(Op.BEQ, rs1=rs1, rs2=rs2, target=target))

    def bne(self, rs1: int, rs2: int, target: str) -> Instruction:
        return self.emit(Instruction(Op.BNE, rs1=rs1, rs2=rs2, target=target))

    def blt(self, rs1: int, rs2: int, target: str) -> Instruction:
        return self.emit(Instruction(Op.BLT, rs1=rs1, rs2=rs2, target=target))

    def bge(self, rs1: int, rs2: int, target: str) -> Instruction:
        return self.emit(Instruction(Op.BGE, rs1=rs1, rs2=rs2, target=target))

    def beqz(self, rs: int, target: str) -> Instruction:
        return self.beq(rs, ZERO, target)

    def bnez(self, rs: int, target: str) -> Instruction:
        return self.bne(rs, ZERO, target)

    def blez(self, rs: int, target: str) -> Instruction:
        return self.emit(Instruction(Op.BGE, rs1=ZERO, rs2=rs, target=target))

    def bgtz(self, rs: int, target: str) -> Instruction:
        return self.emit(Instruction(Op.BLT, rs1=ZERO, rs2=rs, target=target))

    def j(self, target: str) -> Instruction:
        return self.emit(Instruction(Op.J, target=target))

    def jal(self, target: str) -> Instruction:
        return self.emit(Instruction(Op.JAL, rd=RA, target=target))

    def jr(self, rs: int) -> Instruction:
        return self.emit(Instruction(Op.JR, rs1=rs))

    def call(self, target: str) -> Instruction:
        return self.jal(target)

    def ret(self) -> Instruction:
        return self.jr(RA)

    def halt(self) -> Instruction:
        return self.emit(Instruction(Op.HALT))

    # ------------------------------------------------------------------
    # Stack macros
    # ------------------------------------------------------------------

    def push(self, *regs: int) -> None:
        """Push registers on the stack (first argument pushed first)."""
        if not regs:
            return
        self.addi(SP, SP, -WORD * len(regs))
        for i, reg in enumerate(regs):
            self.sw(reg, SP, WORD * i)

    def pop(self, *regs: int) -> None:
        """Pop registers pushed by a matching :meth:`push` call."""
        if not regs:
            return
        for i, reg in enumerate(regs):
            self.lw(reg, SP, WORD * i)
        self.addi(SP, SP, WORD * len(regs))

    def func(self, name: str, *save: int) -> str:
        """Open a function: place its label and save ``ra`` plus ``save`` regs."""
        self.label(name)
        self.push(RA, *save)
        return name

    def leave(self, *save: int) -> None:
        """Restore ``ra`` plus ``save`` regs (matching :meth:`func`) and return."""
        self.pop(RA, *save)
        self.ret()
