"""Functional interpreter for the mini-ISA.

Executes a :class:`~repro.isa.program.Program` and lazily yields the
committed dynamic instruction stream that the timing model consumes.  Each
yielded record is a tuple ``(inst, addr, value, taken)``:

* ``inst``  — the static :class:`~repro.isa.instruction.Instruction`
* ``addr``  — effective address for memory ops (else 0)
* ``value`` — loaded value / stored value / ALLOC result / JR target index
* ``taken`` — branch outcome (True for taken and all jumps)

The interpreter is deterministic, so a trace can be regenerated for the
second (compute-time) simulation of the paper's decomposition.

The dispatch loop works on a *decoded* form of the program: each static
instruction is predigested once into a flat tuple ``(handler-id, rd, rs1,
rs2, imm, target, clears-zero, inst)`` so the per-dynamic-instruction cost
is one list index, one tuple unpack and a chain of small-int comparisons —
no attribute lookups and no enum comparisons.  Opcodes whose semantics
coincide (``ADD``/``FADD``, ``SRL``/``SRA``, ...) share a handler id.
Decoded programs are memoized on the :class:`Program` object, so the many
simulations of one program in a scheme matrix decode it only once.
"""

from __future__ import annotations

import math
from typing import Iterator

from ..errors import ExecutionError
from ..mem.allocator import SizeClassAllocator
from ..mem.memory_image import MemoryImage
from .instruction import Instruction
from .opcodes import Op
from .program import Program
from .registers import NUM_REGS, SP

DynRecord = tuple[Instruction, int, int | float, bool]

_DEFAULT_MAX_STEPS = 200_000_000

# Handler ids, ordered roughly by dynamic frequency.  Opcodes with
# identical semantics map to one handler (the yielded ``inst`` still
# carries the original opcode, so the timing model sees no difference).
(
    _H_LW, _H_SW, _H_ADDI, _H_ADD, _H_BNE, _H_BEQ, _H_BLT, _H_BGE,
    _H_J, _H_JAL, _H_JR, _H_PF, _H_SUB, _H_MUL, _H_SLT, _H_SLTI,
    _H_ALLOC, _H_AND, _H_OR, _H_XOR, _H_ANDI, _H_ORI, _H_XORI,
    _H_SLL, _H_SRL, _H_SLLI, _H_SRLI, _H_DIV, _H_REM, _H_SLTU,
    _H_FNEG, _H_FABS, _H_FDIV, _H_FSQRT, _H_FLE, _H_FEQ, _H_I2F,
    _H_F2I, _H_NOP, _H_HALT,
) = range(40)

_HANDLER: dict[Op, int] = {
    Op.LW: _H_LW, Op.SW: _H_SW, Op.ADDI: _H_ADDI,
    Op.ADD: _H_ADD, Op.FADD: _H_ADD,
    Op.BNE: _H_BNE, Op.BEQ: _H_BEQ, Op.BLT: _H_BLT, Op.BGE: _H_BGE,
    Op.J: _H_J, Op.JAL: _H_JAL, Op.JR: _H_JR,
    Op.PF: _H_PF, Op.JPF: _H_PF,
    Op.SUB: _H_SUB, Op.FSUB: _H_SUB,
    Op.MUL: _H_MUL, Op.FMUL: _H_MUL,
    Op.SLT: _H_SLT, Op.FLT: _H_SLT,
    Op.SLTI: _H_SLTI, Op.ALLOC: _H_ALLOC,
    Op.AND: _H_AND, Op.OR: _H_OR, Op.XOR: _H_XOR,
    Op.ANDI: _H_ANDI, Op.ORI: _H_ORI, Op.XORI: _H_XORI,
    Op.SLL: _H_SLL, Op.SRL: _H_SRL, Op.SRA: _H_SRL,
    Op.SLLI: _H_SLLI, Op.SRLI: _H_SRLI, Op.SRAI: _H_SRLI,
    Op.DIV: _H_DIV, Op.REM: _H_REM, Op.SLTU: _H_SLTU,
    Op.FNEG: _H_FNEG, Op.FABS: _H_FABS, Op.FDIV: _H_FDIV,
    Op.FSQRT: _H_FSQRT, Op.FLE: _H_FLE, Op.FEQ: _H_FEQ,
    Op.I2F: _H_I2F, Op.F2I: _H_F2I,
    Op.NOP: _H_NOP, Op.HALT: _H_HALT,
}

#: Opcodes exempt from the architectural zero-register reset.
_NO_ZERO_CLEAR = (Op.SW, Op.PF, Op.JPF, Op.NOP)

_DecodedInst = tuple[
    int, int, int, int, int | float, "str | int | None", bool, Instruction
]


def decode_program(program: Program) -> list[_DecodedInst]:
    """Predigest ``program`` for the dispatch loop (memoized per program)."""
    cached = getattr(program, "_decoded_insts", None)
    if cached is not None and len(cached) == len(program.instructions):
        return cached
    decoded = []
    for inst in program.instructions:
        op = inst.op
        try:
            hid = _HANDLER[op]
        except KeyError:  # pragma: no cover - exhaustive over Op
            raise ExecutionError(f"unimplemented opcode {op.name}") from None
        clears = inst.rd == 0 and op not in _NO_ZERO_CLEAR
        decoded.append(
            (hid, inst.rd, inst.rs1, inst.rs2, inst.imm, inst.target,
             clears, inst)
        )
    try:
        program._decoded_insts = decoded
    except AttributeError:  # pragma: no cover - slotted Program
        pass
    return decoded


class Interpreter:
    """See module docstring."""

    def __init__(
        self, program: Program, max_steps: int | None = _DEFAULT_MAX_STEPS
    ) -> None:
        self.program = program
        self.max_steps = _DEFAULT_MAX_STEPS if max_steps is None else max_steps
        self.memory = MemoryImage(program.initial_memory)
        self.allocator = SizeClassAllocator(program.heap_base)
        self.registers: list[int | float] = [0] * NUM_REGS
        self.registers[SP] = program.stack_top
        self.steps = 0
        self.finished = False

    def run(self) -> Iterator[DynRecord]:
        """Execute until HALT, yielding the committed instruction stream."""
        regs = self.registers
        mem = self.memory._words  # hot path: direct dict access
        mem_get = mem.get
        alloc = self.allocator.alloc
        code = decode_program(self.program)
        n = len(code)
        pc = self.program.entry
        steps = 0
        max_steps = self.max_steps

        try:
            while True:
                if not 0 <= pc < n:
                    raise ExecutionError(
                        f"pc {pc} outside text segment (0..{n - 1})"
                    )
                if steps >= max_steps:
                    raise ExecutionError(
                        f"instruction budget exceeded ({max_steps}); likely an "
                        f"infinite loop at pc {pc}"
                    )
                hid, rd, rs1, rs2, imm, target, clears, inst = code[pc]
                steps += 1
                next_pc = pc + 1
                addr = 0
                value: int | float = 0
                taken = False

                if hid == _H_LW:
                    addr = regs[rs1] + imm
                    if addr % 4 or addr < 0:
                        raise ExecutionError(
                            f"pc {pc}: misaligned/negative load address {addr:#x}"
                        )
                    value = mem_get(addr, 0)
                    regs[rd] = value
                elif hid == _H_SW:
                    addr = regs[rs1] + imm
                    if addr % 4 or addr < 0:
                        raise ExecutionError(
                            f"pc {pc}: misaligned/negative store address {addr:#x}"
                        )
                    value = regs[rs2]
                    mem[addr] = value
                elif hid == _H_ADDI:
                    regs[rd] = regs[rs1] + imm
                elif hid == _H_ADD:
                    regs[rd] = regs[rs1] + regs[rs2]
                elif hid == _H_BNE:
                    taken = regs[rs1] != regs[rs2]
                    if taken:
                        next_pc = target
                elif hid == _H_BEQ:
                    taken = regs[rs1] == regs[rs2]
                    if taken:
                        next_pc = target
                elif hid == _H_BLT:
                    taken = regs[rs1] < regs[rs2]
                    if taken:
                        next_pc = target
                elif hid == _H_BGE:
                    taken = regs[rs1] >= regs[rs2]
                    if taken:
                        next_pc = target
                elif hid == _H_J:
                    taken = True
                    next_pc = target
                elif hid == _H_JAL:
                    taken = True
                    regs[rd] = pc + 1
                    next_pc = target
                    value = next_pc
                elif hid == _H_JR:
                    taken = True
                    next_pc = regs[rs1]
                    if not isinstance(next_pc, int):
                        raise ExecutionError(f"pc {pc}: JR to non-integer target")
                    value = next_pc
                elif hid == _H_PF:
                    addr = regs[rs1] + imm
                elif hid == _H_SUB:
                    regs[rd] = regs[rs1] - regs[rs2]
                elif hid == _H_MUL:
                    regs[rd] = regs[rs1] * regs[rs2]
                elif hid == _H_SLT:
                    regs[rd] = 1 if regs[rs1] < regs[rs2] else 0
                elif hid == _H_SLTI:
                    regs[rd] = 1 if regs[rs1] < imm else 0
                elif hid == _H_ALLOC:
                    size = regs[rs1] + imm
                    addr = alloc(int(size))
                    regs[rd] = addr
                    value = addr
                elif hid == _H_AND:
                    regs[rd] = regs[rs1] & regs[rs2]
                elif hid == _H_OR:
                    regs[rd] = regs[rs1] | regs[rs2]
                elif hid == _H_XOR:
                    regs[rd] = regs[rs1] ^ regs[rs2]
                elif hid == _H_ANDI:
                    regs[rd] = regs[rs1] & imm
                elif hid == _H_ORI:
                    regs[rd] = regs[rs1] | imm
                elif hid == _H_XORI:
                    regs[rd] = regs[rs1] ^ imm
                elif hid == _H_SLL:
                    regs[rd] = regs[rs1] << regs[rs2]
                elif hid == _H_SRL:
                    regs[rd] = regs[rs1] >> regs[rs2]
                elif hid == _H_SLLI:
                    regs[rd] = regs[rs1] << imm
                elif hid == _H_SRLI:
                    regs[rd] = regs[rs1] >> imm
                elif hid == _H_DIV:
                    b = regs[rs2]
                    if b == 0:
                        raise ExecutionError(f"pc {pc}: integer division by zero")
                    regs[rd] = int(regs[rs1] / b)
                elif hid == _H_REM:
                    b = regs[rs2]
                    if b == 0:
                        raise ExecutionError(f"pc {pc}: integer remainder by zero")
                    a = regs[rs1]
                    regs[rd] = a - int(a / b) * b
                elif hid == _H_SLTU:
                    regs[rd] = 1 if abs(regs[rs1]) < abs(regs[rs2]) else 0
                elif hid == _H_FNEG:
                    regs[rd] = -regs[rs1]
                elif hid == _H_FABS:
                    regs[rd] = abs(regs[rs1])
                elif hid == _H_FDIV:
                    b = regs[rs2]
                    if b == 0:
                        raise ExecutionError(f"pc {pc}: FP division by zero")
                    regs[rd] = regs[rs1] / b
                elif hid == _H_FSQRT:
                    v = regs[rs1]
                    if v < 0:
                        raise ExecutionError(f"pc {pc}: FSQRT of negative value")
                    regs[rd] = math.sqrt(v)
                elif hid == _H_FLE:
                    regs[rd] = 1 if regs[rs1] <= regs[rs2] else 0
                elif hid == _H_FEQ:
                    regs[rd] = 1 if regs[rs1] == regs[rs2] else 0
                elif hid == _H_I2F:
                    regs[rd] = float(regs[rs1])
                elif hid == _H_F2I:
                    regs[rd] = int(regs[rs1])
                elif hid == _H_NOP:
                    pass
                else:  # _H_HALT
                    self.finished = True
                    yield (inst, 0, 0, False)
                    return

                if clears:
                    regs[0] = 0
                yield (inst, addr, value, taken)
                pc = next_pc
        finally:
            self.steps = steps

    # Backwards-compatible alias: external tools introspecting the decode
    # table (tests, debuggers) go through this.
    decode = staticmethod(decode_program)


def run_to_completion(
    program: Program, max_steps: int | None = _DEFAULT_MAX_STEPS
) -> Interpreter:
    """Run ``program`` functionally, discarding the trace; returns the
    interpreter for state inspection (registers, memory, allocator)."""
    interp = Interpreter(program, max_steps=max_steps)
    for _ in interp.run():
        pass
    return interp
