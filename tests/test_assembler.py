"""Assembler DSL: labels, data, macros, program assembly."""

import pytest

from repro import Assembler, AssemblyError, Op, run_to_completion
from repro.isa.instruction import TEXT_BASE
from repro.isa.opcodes import MEM_OPS
from repro.isa.program import DATA_BASE
from repro.isa.registers import A0, RA, S0, S1, T0, T1, V0, ZERO


def test_label_resolution():
    a = Assembler()
    a.label("main")
    a.j("end")
    a.li(T0, 1)
    a.label("end")
    a.halt()
    p = a.assemble()
    assert p.instructions[0].target == p.labels["end"] == 2


def test_duplicate_label_rejected():
    a = Assembler()
    a.label("x")
    with pytest.raises(AssemblyError):
        a.label("x")


def test_undefined_label_rejected():
    a = Assembler()
    a.j("nowhere")
    a.halt()
    with pytest.raises(AssemblyError, match="nowhere"):
        a.assemble()


def test_missing_halt_rejected():
    a = Assembler()
    a.li(T0, 1)
    with pytest.raises(AssemblyError, match="HALT"):
        a.assemble()


def test_newlabel_unique():
    a = Assembler()
    names = {a.newlabel("x") for __ in range(100)}
    assert len(names) == 100


def test_data_section_layout():
    a = Assembler()
    w1 = a.word(42)
    arr = a.array([1, 2, 3])
    sp = a.space(2)
    assert w1 == DATA_BASE
    assert arr == DATA_BASE + 4
    assert sp == DATA_BASE + 16
    a.halt()
    p = a.assemble()
    assert p.initial_memory[w1] == 42
    assert p.initial_memory[arr + 8] == 3
    assert p.initial_memory[sp] == 0


def test_poke_overwrites_initial_memory():
    a = Assembler()
    w = a.word(0)
    a.poke(w, 99)
    a.halt()
    assert a.assemble().initial_memory[w] == 99


def test_poke_rejects_misaligned():
    a = Assembler()
    with pytest.raises(AssemblyError):
        a.poke(DATA_BASE + 2, 1)


def test_instruction_addresses():
    a = Assembler()
    a.nop()
    a.halt()
    p = a.assemble()
    assert p.instructions[0].address == TEXT_BASE
    assert p.instructions[1].address == TEXT_BASE + 4


def test_li_encodes_addi_from_zero():
    a = Assembler()
    inst = a.li(T0, 123)
    assert inst.op is Op.ADDI and inst.rs1 == ZERO and inst.imm == 123


def test_push_pop_roundtrip():
    a = Assembler()
    a.label("main")
    a.li(S0, 7)
    a.li(S1, 9)
    a.push(S0, S1)
    a.li(S0, 0)
    a.li(S1, 0)
    a.pop(S0, S1)
    a.halt()
    interp = run_to_completion(a.assemble())
    assert interp.registers[S0] == 7
    assert interp.registers[S1] == 9


def test_func_leave_call_convention():
    a = Assembler()
    res = a.word(0)
    a.label("main")
    a.li(A0, 20)
    a.jal("double")
    a.li(T0, res)
    a.sw(V0, T0, 0)
    a.halt()
    a.func("double", S0)
    a.add(V0, A0, A0)
    a.leave(S0)
    interp = run_to_completion(a.assemble())
    assert interp.memory.load(res) == 40


def test_nested_calls_preserve_ra():
    a = Assembler()
    res = a.word(0)
    a.label("main")
    a.li(A0, 3)
    a.jal("outer")
    a.li(T0, res)
    a.sw(V0, T0, 0)
    a.halt()
    a.func("outer")
    a.jal("inner")
    a.addi(V0, V0, 1)
    a.leave()
    a.func("inner")
    a.add(V0, A0, A0)
    a.leave()
    interp = run_to_completion(a.assemble())
    assert interp.memory.load(res) == 7


def test_branch_aliases():
    a = Assembler()
    assert a.beqz(T0, "x").op is Op.BEQ
    assert a.bnez(T0, "x").op is Op.BNE
    assert a.blez(T0, "x").op is Op.BGE  # 0 >= rs
    assert a.bgtz(T1, "x").op is Op.BLT  # 0 < rs
    a.label("x")
    a.halt()
    a.assemble()


def test_memory_op_annotations():
    a = Assembler()
    inst = a.lw(T0, T1, 8, pad=16, tag="lds")
    assert inst.pad == 16 and inst.tag == "lds" and inst.imm == 8
    assert inst.op in MEM_OPS


def test_disassemble_smoke():
    a = Assembler()
    a.label("main")
    a.lw(T0, T1, 4, tag="lds")
    a.beq(T0, ZERO, "main")
    a.halt()
    text = a.assemble().disassemble()
    assert "main:" in text
    assert "lw" in text


def test_here_tracks_position():
    a = Assembler()
    assert a.here == 0
    a.nop()
    assert a.here == 1
