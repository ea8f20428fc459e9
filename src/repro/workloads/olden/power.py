"""Olden ``power``: power-system optimization over a fixed tree.

Root -> laterals -> branches -> leaves; every iteration propagates demand
values bottom-up with heavy floating-point work (divides and square roots)
at every node.  The tree is small and the program is compute-bound: the
paper's characterization gives power a very small memory-latency component
and warns that "even the smallest computation overheads introduced by
software prefetching overwhelm the potential benefit and produce an
overall slowdown" (Section 4.2).  The queue-jumping variants exist to
reproduce exactly that slowdown; hardware JPP should be harmless.

Node layout (bytes): {child@0, next@4, value@8[, jp@12]} — 12/16 bytes in
the 16-byte class.
"""

from __future__ import annotations

import math

from ...core.jump_queue import SoftwareJumpQueue, emit_jump_prefetch
from ...isa.assembler import Assembler
from ...isa.interpreter import Interpreter
from ...isa.registers import (
    A0,
    A1,
    SP,
    RA,
    S0,
    S1,
    S2,
    S5,
    S6,
    S7,
    T0,
    T1,
    T2,
    V0,
    ZERO,
)
from ..base import BuiltProgram, Workload, parse_variant
from ..registry import register

OFF_CHILD = 0
OFF_NEXT = 4
OFF_VALUE = 8
OFF_JP = 12
NODE_CLASS = 16


def _initial(i: int) -> float:
    return 0.5 + (i % 17) * 0.0625


def _leaf_work(v: float) -> float:
    """Per-leaf computation (two divides and a square root, standing in for
    power's per-leaf optimization step)."""
    v = 1.0 / (v + 2.0)
    v = math.sqrt(v * v + 0.25)
    return v / 1.25


def mirror(laterals: int, branches: int, leaves: int, iterations: int) -> float:
    """Replicates the build order and the bottom-up sweeps exactly."""
    counter = [0]
    counts_by_depth = {0: laterals, 1: branches, 2: leaves}

    def build_level(count: int, depth: int):
        nodes = []
        for __ in range(count):
            val = _initial(counter[0])
            counter[0] += 1
            kids = build_level(counts_by_depth[depth + 1], depth + 1) if depth < 2 else []
            nodes.insert(0, [val, kids])  # prepend, like the assembly
        return nodes

    tree = build_level(laterals, 0)

    def compute(node) -> float:
        val, kids = node
        if not kids:
            node[0] = _leaf_work(val)
            return node[0]
        total = 0.0
        count = 0
        for k in kids:
            total = total + compute(k)
            count += 1
        node[0] = total / (float(count) + 1.0)
        return node[0]

    root_val = 0.0
    for __ in range(iterations):
        root_val = 0.0
        for lateral in tree:
            root_val = root_val + compute(lateral)
    return root_val


@register
class Power(Workload):
    name = "power"
    structure = "small fixed tree, FP-heavy per-node work (compute-bound)"
    idioms = ("queue",)
    variants = ("baseline", "sw:queue", "coop:queue")
    expectation = (
        "tiny memory component: software prefetch overhead causes a net "
        "slowdown; hardware JPP is at worst harmless"
    )

    @classmethod
    def default_params(cls) -> dict:
        return {"laterals": 10, "branches": 8, "leaves": 5, "iterations": 5,
                "interval": 8}

    @classmethod
    def test_params(cls) -> dict:
        return {"laterals": 3, "branches": 2, "leaves": 2, "iterations": 2,
                "interval": 4}

    def build_variant(self, variant: str) -> BuiltProgram:
        impl, idiom = parse_variant(variant)
        laterals: int = self.params["laterals"]
        branches: int = self.params["branches"]
        leaves: int = self.params["leaves"]
        iterations: int = self.params["iterations"]
        interval: int = self.params["interval"]

        a = Assembler()
        res = a.word(0)
        queue = SoftwareJumpQueue(a, interval, "wjq") if impl != "baseline" else None
        node_bytes = 16 if impl != "baseline" else 12

        a.label("main")
        a.li(S7, 0)              # global creation counter
        a.li(A0, laterals)
        a.li(A1, 0)              # depth
        a.jal("build_level")
        a.mov(S5, V0)            # lateral list head
        a.li(S6, iterations)
        a.label("iter")
        a.beqz(S6, "end")
        a.fli(S0, 0.0)           # root accumulator
        a.mov(S1, S5)
        a.label("root_kids")
        a.beqz(S1, "iter_done")
        a.mov(A0, S1)
        a.jal("compute")
        a.fadd(S0, S0, V0)
        a.lw(S1, S1, OFF_NEXT, pad=NODE_CLASS, tag="lds")
        a.j("root_kids")
        a.label("iter_done")
        a.addi(S6, S6, -1)
        a.j("iter")
        a.label("end")
        a.li(T0, res)
        a.sw(S0, T0, 0)
        a.halt()

        # ---- build_level(A0=count, A1=depth) -> list head --------------
        a.func("build_level", S0, S1, S2)
        a.li(S0, 0)          # head
        a.mov(S1, A0)        # remaining count
        a.label("bl_loop")
        a.beqz(S1, "bl_done")
        a.alloc(S2, ZERO, node_bytes)
        if queue is not None:
            queue.update(S2, OFF_JP, T0, T1, T2)
        # value = 0.5 + (counter % 17) * 0.0625
        a.li(T1, 17)
        a.rem(T2, S7, T1)
        a.i2f(T2, T2)
        a.fli(T1, 0.0625)
        a.fmul(T2, T2, T1)
        a.fli(T1, 0.5)
        a.fadd(T2, T2, T1)
        a.sw(T2, S2, OFF_VALUE)
        a.addi(S7, S7, 1)
        a.sw(S0, S2, OFF_NEXT)   # prepend
        a.mov(S0, S2)
        # children (depth 0 -> branches, depth 1 -> leaves, depth 2 -> none)
        a.li(T1, 2)
        a.bge(A1, T1, "bl_nokids")
        a.push(A1, S2)
        a.beqz(A1, "bl_d0")
        a.li(A0, leaves)
        a.j("bl_call")
        a.label("bl_d0")
        a.li(A0, branches)
        a.label("bl_call")
        a.addi(A1, A1, 1)
        a.jal("build_level")
        a.pop(A1, S2)
        a.sw(V0, S2, OFF_CHILD)
        a.label("bl_nokids")
        a.addi(S1, S1, -1)
        a.j("bl_loop")
        a.label("bl_done")
        a.mov(V0, S0)
        a.leave(S0, S1, S2)

        # ---- compute(A0=node) -> value --------------------------------
        a.label("compute")
        a.push(RA, S0, S1, S2)
        emit_jump_prefetch(a, impl, A0, OFF_JP, T0)
        a.mov(S0, A0)
        a.lw(S2, S0, OFF_CHILD, pad=NODE_CLASS, tag="lds")
        a.bnez(S2, "c_inner")
        # leaf: v = sqrt((1/(v+2))^2 + 0.25) / 1.25
        a.lw(T1, S0, OFF_VALUE, pad=NODE_CLASS, tag="lds")
        a.fli(T2, 2.0)
        a.fadd(T1, T1, T2)
        a.fli(T2, 1.0)
        a.fdiv(T1, T2, T1)
        a.fmul(T2, T1, T1)
        a.fli(T0, 0.25)
        a.fadd(T2, T2, T0)
        a.fsqrt(T2, T2)
        a.fli(T0, 1.25)
        a.fdiv(T2, T2, T0)
        a.sw(T2, S0, OFF_VALUE)
        a.mov(V0, T2)
        a.pop(RA, S0, S1, S2)
        a.ret()
        a.label("c_inner")
        a.fli(S1, 0.0)           # sum; child count in T8 would be caller-
        a.push(ZERO)             # ...saved, so keep the count on the stack
        a.label("c_kids")
        a.beqz(S2, "c_done")
        a.mov(A0, S2)
        a.jal("compute")
        a.fadd(S1, S1, V0)
        a.lw(T1, SP, 0)          # count++
        a.addi(T1, T1, 1)
        a.sw(T1, SP, 0)
        a.lw(S2, S2, OFF_NEXT, pad=NODE_CLASS, tag="lds")
        a.j("c_kids")
        a.label("c_done")
        a.pop(T1)                # child count
        a.i2f(T2, T1)
        a.fli(T0, 1.0)
        a.fadd(T2, T2, T0)
        a.fdiv(S1, S1, T2)
        a.sw(S1, S0, OFF_VALUE)
        a.mov(V0, S1)
        a.pop(RA, S0, S1, S2)
        a.ret()

        program = a.assemble(f"power[{variant}]")
        expected = mirror(laterals, branches, leaves, iterations)

        def check(interp: Interpreter) -> None:
            got = interp.memory.load(res)
            assert got == expected, f"power: {got!r} != {expected!r}"

        return BuiltProgram(
            program=program,
            expected={"root_value": expected},
            check=check,
        )
