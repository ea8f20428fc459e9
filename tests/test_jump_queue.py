"""Software jump-queue creation code (the queue method, Section 2.1)."""

import pytest

from repro import Assembler, run_to_completion
from repro.core.jump_queue import SoftwareJumpQueue, emit_jump_prefetch
from repro.isa.opcodes import Op
from repro.isa.registers import A0, T0, T1, T2, T3, T4, ZERO

JP_OFF = 8


def run_queue_program(n_nodes, interval, reverse=False, extra_value=None):
    """Allocate nodes in order, calling queue.update at each; returns
    (node_addresses, memory)."""
    a = Assembler()
    queue = SoftwareJumpQueue(a, interval, "q")
    table = a.space(n_nodes)
    a.label("main")
    a.li(T4, 0)
    a.label("loop")
    a.li(T0, n_nodes)
    a.bge(T4, T0, "end")
    a.alloc(A0, ZERO, 12)
    a.slli(T0, T4, 2)
    a.addi(T0, T0, table)
    a.sw(A0, T0, 0)
    if extra_value is not None:
        a.li(T3, extra_value)
        queue.update(A0, JP_OFF, T0, T1, T2, extra=[(12, T3)])
    else:
        queue.update(A0, JP_OFF, T0, T1, T2, reverse=reverse)
    a.addi(T4, T4, 1)
    a.j("loop")
    a.label("end")
    a.halt()
    interp = run_to_completion(a.assemble())
    addrs = [interp.memory.load(table + 4 * i) for i in range(n_nodes)]
    return addrs, interp.memory


@pytest.mark.parametrize("interval", [1, 2, 4, 8])
def test_jump_pointers_point_interval_ahead(interval):
    addrs, mem = run_queue_program(20, interval)
    for i, addr in enumerate(addrs):
        jp = mem.load(addr + JP_OFF)
        if i + interval < len(addrs):
            assert jp == addrs[i + interval], f"node {i}"
    # last `interval` nodes never become homes
    for addr in addrs[-interval:]:
        assert mem.load(addr + JP_OFF) == 0


def test_reverse_mode_points_backward_in_creation_order():
    addrs, mem = run_queue_program(12, 4, reverse=True)
    for i, addr in enumerate(addrs):
        jp = mem.load(addr + JP_OFF)
        if i >= 4:
            assert jp == addrs[i - 4]
        else:
            assert jp == 0


def test_extra_stores_reach_home_node():
    addrs, mem = run_queue_program(10, 2, extra_value=0xABCD)
    for i in range(len(addrs) - 2):
        assert mem.load(addrs[i] + 12) == 0xABCD


def test_interval_must_be_power_of_two():
    a = Assembler()
    with pytest.raises(ValueError):
        SoftwareJumpQueue(a, 3)
    with pytest.raises(ValueError):
        SoftwareJumpQueue(a, 0)


def test_reset_clears_state():
    a = Assembler()
    queue = SoftwareJumpQueue(a, 2, "q")
    a.label("main")
    a.alloc(A0, ZERO, 12)
    queue.update(A0, JP_OFF, T0, T1, T2)
    queue.reset(T0)
    a.alloc(T3, ZERO, 12)
    # after reset the first update installs nothing (queue refilling)
    queue.update(T3, JP_OFF, T0, T1, T2)
    a.halt()
    interp = run_to_completion(a.assemble())
    first = interp.allocator._regions[16]
    assert interp.memory.load(first + JP_OFF) == 0


def test_prefetch_emitters():
    def emitted(impl):
        a = Assembler()
        a.label("main")
        emit_jump_prefetch(a, impl, A0, JP_OFF, T0)
        a.halt()
        return a.assemble().instructions[:-1]

    lw, pf = emitted("sw")
    assert [lw.op, pf.op] == [Op.LW, Op.PF]
    assert (lw.rd, lw.rs1, lw.imm) == (T0, A0, JP_OFF)
    assert lw.tag == "lds"  # the jump-pointer load is an LDS load
    assert (pf.rs1, pf.imm) == (T0, 0)
    (jpf,) = emitted("coop")
    assert jpf.op == Op.JPF and (jpf.rs1, jpf.imm) == (A0, JP_OFF)
    assert emitted("baseline") == []


def test_update_cost_is_small():
    """The queue method costs ~11 instructions per visit (the explicit
    creation overhead the paper accounts for)."""
    a = Assembler()
    queue = SoftwareJumpQueue(a, 8, "q")
    start = a.here
    queue.update(A0, JP_OFF, T0, T1, T2)
    assert a.here - start <= 11
