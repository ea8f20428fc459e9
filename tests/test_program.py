"""Program container and dynamic instruction stream."""

from repro import Assembler, Interpreter, Op
from repro.isa.registers import T0, T1, ZERO


def make_program():
    a = Assembler()
    w = a.word(7)
    a.label("main")
    a.li(T0, w)
    a.lw(T1, T0, 0)
    a.beq(T1, ZERO, "main")
    a.halt()
    return a.assemble("demo"), w


def test_program_metadata():
    p, __ = make_program()
    assert p.name == "demo"
    assert len(p) == 4
    assert p.entry == p.labels["main"] == 0


def test_dynamic_stream_contents():
    p, w = make_program()
    interp = Interpreter(p)
    records = list(interp.run())
    assert interp.finished
    ops = [r[0].op for r in records]
    assert ops == [Op.ADDI, Op.LW, Op.BEQ, Op.HALT]
    # the load record carries its address and value
    __, addr, value, __t = records[1]
    assert addr == w and value == 7
    # the (not-taken) branch record
    __, __a, __v, taken = records[2]
    assert taken is False


def test_taken_branch_records_target():
    a = Assembler()
    a.label("main")
    a.li(T0, 1)
    a.bne(T0, ZERO, "skip")
    a.li(T0, 2)
    a.label("skip")
    a.halt()
    records = list(Interpreter(a.assemble()).run())
    branch = records[1]
    assert branch[0].op == Op.BNE and branch[3] is True
    assert len(records) == 3  # li, bne, halt — the skipped li never runs


def test_jal_and_jr_record_targets():
    a = Assembler()
    a.label("main")
    a.jal("f")
    a.halt()
    a.label("f")
    a.ret()
    records = list(Interpreter(a.assemble()).run())
    assert records[0][0].op == Op.JAL
    assert records[1][0].op == Op.JR
    assert records[1][2] == 1  # returns to instruction index 1 (the halt)


def test_steps_counted():
    p, __ = make_program()
    interp = Interpreter(p)
    list(interp.run())
    assert interp.steps == 4
