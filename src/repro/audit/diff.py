"""Differential validation: reference interpreter vs. decode-table fast path.

The functional interpreter (:class:`repro.isa.interpreter.Interpreter`)
predigests programs into a handler-id decode table for speed; this module
keeps that fast path honest with a deliberately naive
:class:`ReferenceInterpreter` that re-reads every instruction field and
dispatches on the :class:`~repro.isa.opcodes.Op` enum directly — no
decode table, no handler sharing, no memoization.  The two must yield
bit-identical committed-instruction streams and final architectural
state for every program.

:func:`diff_commit_streams` runs both in lockstep and reports the first
divergent dynamic instruction (which record, which field, both values)
rather than a bare "streams differ".  :func:`diff_results` compares two
:class:`~repro.cpu.stats.SimResult` objects field-by-field with dotted
paths; :func:`reference_simulate` substitutes the reference interpreter
into the full timing model so the stats themselves can be diffed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterator

from ..config import MachineConfig
from ..cpu.simulator import simulate
from ..cpu.stats import SimResult
from ..errors import ExecutionError
from ..isa.interpreter import _DEFAULT_MAX_STEPS, DynRecord, Interpreter
from ..isa.opcodes import Op
from ..isa.program import Program
from ..isa.registers import NUM_REGS, SP
from ..mem.allocator import SizeClassAllocator
from ..mem.memory_image import MemoryImage

#: Opcodes exempt from the architectural zero-register reset (mirrors the
#: fast path's table; restated independently so a fast-path regression
#: here is caught rather than inherited).
_NO_ZERO_CLEAR = (Op.SW, Op.PF, Op.JPF, Op.NOP)


class ReferenceInterpreter:
    """Naive per-opcode functional interpreter (the audit reference).

    Drop-in for :class:`~repro.isa.interpreter.Interpreter`: same
    constructor, same lazily-yielded ``(inst, addr, value, taken)``
    records, same exposed state (``registers``, ``memory``,
    ``allocator``, ``steps``, ``finished``).
    """

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
        regs = self.registers
        mem = self.memory._words
        insts = self.program.instructions
        n = len(insts)
        pc = self.program.entry
        steps = 0
        try:
            while True:
                if not 0 <= pc < n:
                    raise ExecutionError(
                        f"pc {pc} outside text segment (0..{n - 1})"
                    )
                if steps >= self.max_steps:
                    raise ExecutionError(
                        f"instruction budget exceeded ({self.max_steps}); "
                        f"likely an infinite loop at pc {pc}"
                    )
                inst = insts[pc]
                op = inst.op
                steps += 1
                next_pc = pc + 1
                addr = 0
                value: int | float = 0
                taken = False

                if op is Op.LW:
                    addr = regs[inst.rs1] + inst.imm
                    if addr % 4 or addr < 0:
                        raise ExecutionError(
                            f"pc {pc}: misaligned/negative load address {addr:#x}"
                        )
                    value = mem.get(addr, 0)
                    regs[inst.rd] = value
                elif op is Op.SW:
                    addr = regs[inst.rs1] + inst.imm
                    if addr % 4 or addr < 0:
                        raise ExecutionError(
                            f"pc {pc}: misaligned/negative store address {addr:#x}"
                        )
                    value = regs[inst.rs2]
                    mem[addr] = value
                elif op is Op.ADDI:
                    regs[inst.rd] = regs[inst.rs1] + inst.imm
                elif op is Op.ADD or op is Op.FADD:
                    regs[inst.rd] = regs[inst.rs1] + regs[inst.rs2]
                elif op is Op.SUB or op is Op.FSUB:
                    regs[inst.rd] = regs[inst.rs1] - regs[inst.rs2]
                elif op is Op.MUL or op is Op.FMUL:
                    regs[inst.rd] = regs[inst.rs1] * regs[inst.rs2]
                elif op is Op.BNE:
                    taken = regs[inst.rs1] != regs[inst.rs2]
                    if taken:
                        next_pc = inst.target
                elif op is Op.BEQ:
                    taken = regs[inst.rs1] == regs[inst.rs2]
                    if taken:
                        next_pc = inst.target
                elif op is Op.BLT:
                    taken = regs[inst.rs1] < regs[inst.rs2]
                    if taken:
                        next_pc = inst.target
                elif op is Op.BGE:
                    taken = regs[inst.rs1] >= regs[inst.rs2]
                    if taken:
                        next_pc = inst.target
                elif op is Op.J:
                    taken = True
                    next_pc = inst.target
                elif op is Op.JAL:
                    taken = True
                    regs[inst.rd] = pc + 1
                    next_pc = inst.target
                    value = next_pc
                elif op is Op.JR:
                    taken = True
                    next_pc = regs[inst.rs1]
                    if not isinstance(next_pc, int):
                        raise ExecutionError(f"pc {pc}: JR to non-integer target")
                    value = next_pc
                elif op is Op.PF or op is Op.JPF:
                    addr = regs[inst.rs1] + inst.imm
                elif op is Op.SLT or op is Op.FLT:
                    regs[inst.rd] = 1 if regs[inst.rs1] < regs[inst.rs2] else 0
                elif op is Op.SLTI:
                    regs[inst.rd] = 1 if regs[inst.rs1] < inst.imm else 0
                elif op is Op.ALLOC:
                    size = regs[inst.rs1] + inst.imm
                    addr = self.allocator.alloc(int(size))
                    regs[inst.rd] = addr
                    value = addr
                elif op is Op.AND:
                    regs[inst.rd] = regs[inst.rs1] & regs[inst.rs2]
                elif op is Op.OR:
                    regs[inst.rd] = regs[inst.rs1] | regs[inst.rs2]
                elif op is Op.XOR:
                    regs[inst.rd] = regs[inst.rs1] ^ regs[inst.rs2]
                elif op is Op.ANDI:
                    regs[inst.rd] = regs[inst.rs1] & inst.imm
                elif op is Op.ORI:
                    regs[inst.rd] = regs[inst.rs1] | inst.imm
                elif op is Op.XORI:
                    regs[inst.rd] = regs[inst.rs1] ^ inst.imm
                elif op is Op.SLL:
                    regs[inst.rd] = regs[inst.rs1] << regs[inst.rs2]
                elif op is Op.SRL or op is Op.SRA:
                    regs[inst.rd] = regs[inst.rs1] >> regs[inst.rs2]
                elif op is Op.SLLI:
                    regs[inst.rd] = regs[inst.rs1] << inst.imm
                elif op is Op.SRLI or op is Op.SRAI:
                    regs[inst.rd] = regs[inst.rs1] >> inst.imm
                elif op is Op.DIV:
                    b = regs[inst.rs2]
                    if b == 0:
                        raise ExecutionError(f"pc {pc}: integer division by zero")
                    regs[inst.rd] = int(regs[inst.rs1] / b)
                elif op is Op.REM:
                    b = regs[inst.rs2]
                    if b == 0:
                        raise ExecutionError(f"pc {pc}: integer remainder by zero")
                    a = regs[inst.rs1]
                    regs[inst.rd] = a - int(a / b) * b
                elif op is Op.SLTU:
                    regs[inst.rd] = (
                        1 if abs(regs[inst.rs1]) < abs(regs[inst.rs2]) else 0
                    )
                elif op is Op.FNEG:
                    regs[inst.rd] = -regs[inst.rs1]
                elif op is Op.FABS:
                    regs[inst.rd] = abs(regs[inst.rs1])
                elif op is Op.FDIV:
                    b = regs[inst.rs2]
                    if b == 0:
                        raise ExecutionError(f"pc {pc}: FP division by zero")
                    regs[inst.rd] = regs[inst.rs1] / b
                elif op is Op.FSQRT:
                    v = regs[inst.rs1]
                    if v < 0:
                        raise ExecutionError(f"pc {pc}: FSQRT of negative value")
                    regs[inst.rd] = math.sqrt(v)
                elif op is Op.FLE:
                    regs[inst.rd] = 1 if regs[inst.rs1] <= regs[inst.rs2] else 0
                elif op is Op.FEQ:
                    regs[inst.rd] = 1 if regs[inst.rs1] == regs[inst.rs2] else 0
                elif op is Op.I2F:
                    regs[inst.rd] = float(regs[inst.rs1])
                elif op is Op.F2I:
                    regs[inst.rd] = int(regs[inst.rs1])
                elif op is Op.NOP:
                    pass
                elif op is Op.HALT:
                    self.finished = True
                    yield (inst, 0, 0, False)
                    return
                else:  # pragma: no cover - exhaustive over Op
                    raise ExecutionError(f"unimplemented opcode {op.name}")

                if inst.rd == 0 and op not in _NO_ZERO_CLEAR:
                    regs[0] = 0
                yield (inst, addr, value, taken)
                pc = next_pc
        finally:
            self.steps = steps


# ----------------------------------------------------------------------
# Stream diffing
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Divergence:
    """First point where the fast and reference paths disagree.

    ``index`` is the dynamic instruction number (0-based); ``where`` is
    the diverging field — ``pc``/``addr``/``value``/``taken`` for a
    record mismatch, ``length`` when one stream ended early, and
    ``register:<n>`` / ``memory:<addr>`` / ``steps`` for final-state
    mismatches after identical streams.
    """

    index: int
    where: str
    fast: Any
    ref: Any

    def describe(self) -> str:
        return (
            f"first divergence at dynamic instruction {self.index}, "
            f"field {self.where!r}: fast={self.fast!r} ref={self.ref!r}"
        )


_STREAM_FIELDS = ("pc", "addr", "value", "taken")
_SENTINEL = object()


def diff_commit_streams(
    program: Program, max_steps: int | None = None
) -> Divergence | None:
    """Run the decode-table and reference interpreters in lockstep.

    Returns None when the committed-instruction streams and the final
    architectural state (registers, memory, step count) are
    bit-identical, else the first :class:`Divergence`.
    """
    fast = Interpreter(program, max_steps=max_steps)
    ref = ReferenceInterpreter(program, max_steps=max_steps)
    fast_stream = fast.run()
    ref_stream = ref.run()
    index = 0
    while True:
        a = next(fast_stream, _SENTINEL)
        b = next(ref_stream, _SENTINEL)
        if a is _SENTINEL or b is _SENTINEL:
            if a is not b:
                return Divergence(
                    index, "length",
                    "ended" if a is _SENTINEL else "running",
                    "ended" if b is _SENTINEL else "running",
                )
            break
        fa = (a[0].index, a[1], a[2], a[3])
        fb = (b[0].index, b[1], b[2], b[3])
        if fa != fb:
            for name, va, vb in zip(_STREAM_FIELDS, fa, fb):
                if va != vb or type(va) is not type(vb):
                    return Divergence(index, name, va, vb)
        index += 1
    for r in range(NUM_REGS):
        if fast.registers[r] != ref.registers[r]:
            return Divergence(
                index, f"register:{r}", fast.registers[r], ref.registers[r]
            )
    fast_mem = fast.memory._words
    ref_mem = ref.memory._words
    for addr in fast_mem.keys() | ref_mem.keys():
        va, vb = fast_mem.get(addr, 0), ref_mem.get(addr, 0)
        if va != vb:
            return Divergence(index, f"memory:{addr:#x}", va, vb)
    if fast.steps != ref.steps:
        return Divergence(index, "steps", fast.steps, ref.steps)
    return None


# ----------------------------------------------------------------------
# Result diffing
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FieldDiff:
    """One differing field between two results, by dotted path."""

    path: str
    a: Any
    b: Any


def _flatten(value: Any, path: str, out: dict[str, Any]) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(v, f"{path}.{k}" if path else str(k), out)
    elif isinstance(value, (list, tuple)):
        out[f"{path}.len"] = len(value)
        for i, v in enumerate(value):
            _flatten(v, f"{path}[{i}]", out)
    else:
        out[path] = value


def diff_results(
    a: SimResult | dict, b: SimResult | dict, ignore: tuple[str, ...] = ()
) -> list[FieldDiff]:
    """Field-by-field comparison of two results (or result dicts).

    Returns every differing dotted path, including fields present on one
    side only.  ``ignore`` drops paths by prefix (e.g. ``("telemetry",)``
    to compare pure simulation outputs).
    """
    da = a.to_dict() if isinstance(a, SimResult) else a
    db = b.to_dict() if isinstance(b, SimResult) else b
    fa: dict[str, Any] = {}
    fb: dict[str, Any] = {}
    _flatten(da, "", fa)
    _flatten(db, "", fb)
    diffs = []
    for path in sorted(fa.keys() | fb.keys()):
        if any(path == p or path.startswith(p + ".") for p in ignore):
            continue
        va, vb = fa.get(path, _SENTINEL), fb.get(path, _SENTINEL)
        if va is _SENTINEL or vb is _SENTINEL or va != vb:
            diffs.append(FieldDiff(
                path,
                None if va is _SENTINEL else va,
                None if vb is _SENTINEL else vb,
            ))
    return diffs


def reference_simulate(
    program: Program,
    cfg: MachineConfig | None = None,
    engine: str = "none",
    max_steps: int | None = None,
) -> SimResult:
    """Full timing simulation driven by the reference interpreter."""
    return simulate(
        program, cfg, engine=engine, max_steps=max_steps,
        interpreter_factory=ReferenceInterpreter,
    )
