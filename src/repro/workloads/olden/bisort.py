"""Olden ``bisort``: bitonic sort over a binary tree (volatile structure).

The paper uses bisort as a *negative* example: "bisort and tsp are both
highly dynamic structures for which any jump-pointer scheme will not
remain valid for long enough to be useful.  In fact, explicit jump-pointer
prefetching has an adverse effect on bisort, as traversal order changes
rapidly and any jump-pointer prefetches become purely overhead"
(Section 4.2).

The kernel preserves exactly that property (see DESIGN.md for the
substitution note): a large binary tree whose *child pointers are swapped*
data-dependently at every round (the structural flavour of bisort's
subtree exchanges), combined with a value compare-exchange step.  Each
round's traversal order therefore differs from the previous one, so
queue-installed jump-pointers go stale immediately.  The verification
checksum is traversal-order-dependent, so a wrong swap anywhere changes
the result.

Node layout (bytes): {value@0, left@4, right@8[, jp@12]} (16-byte class).
"""

from __future__ import annotations

from ...core.jump_queue import SoftwareJumpQueue, emit_jump_prefetch
from ...isa.assembler import Assembler
from ...isa.interpreter import Interpreter
from ...isa.registers import (
    A0,
    A1,
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
from .common import lcg

OFF_VALUE = 0
OFF_LEFT = 4
OFF_RIGHT = 8
OFF_JP = 12
NODE_CLASS = 16
SEED0 = 0x5EED1E55
MASK32 = 0xFFFFFFFF


def mirror(levels: int, rounds: int) -> tuple[int, int]:
    """Returns (checksum of the final round, value sum).  Node = [v, l, r]."""
    seed = SEED0

    def build(level: int):
        nonlocal seed
        seed = lcg(seed)
        node = [seed & 0xFFFF, None, None]
        if level > 1:
            node[1] = build(level - 1)
            node[2] = build(level - 1)
        return node

    root = build(levels)

    def shuffle(node, rnd, collect):
        nonlocal checksum
        if node is None:
            return
        v = node[0]
        checksum = (checksum + v) if collect else checksum
        left, right = node[1], node[2]
        if left is not None and right is not None:
            if (v + rnd) & 1:
                node[1], node[2] = right, left
            lval = node[1][0]
            if lval < v:
                node[0], node[1][0] = lval, v
        shuffle(node[1], rnd, collect)
        shuffle(node[2], rnd, collect)

    checksum = 0
    for r in range(rounds):
        checksum = 0
        shuffle(root, r, True)
    checksum &= MASK32

    def total(node):
        if node is None:
            return 0
        return node[0] + total(node[1]) + total(node[2])

    return checksum, total(root)


@register
class Bisort(Workload):
    name = "bisort"
    structure = "large binary tree, traversal order mutates every round (volatile)"
    idioms = ()
    variants = ("baseline", "sw:queue", "coop:queue")
    expectation = (
        "jump-pointers go stale immediately: software/cooperative JPP is a "
        "net slowdown, hardware JPP is useless but harmless"
    )

    @classmethod
    def default_params(cls) -> dict:
        return {"levels": 11, "rounds": 4, "interval": 8}

    @classmethod
    def test_params(cls) -> dict:
        return {"levels": 5, "rounds": 2, "interval": 4}

    def build_variant(self, variant: str) -> BuiltProgram:
        impl, idiom = parse_variant(variant)
        levels: int = self.params["levels"]
        rounds: int = self.params["rounds"]
        interval: int = self.params["interval"]

        a = Assembler()
        res_chk = a.word(0)
        queue = SoftwareJumpQueue(a, interval, "bjq") if impl != "baseline" else None
        node_bytes = 16 if impl != "baseline" else 12

        a.label("main")
        a.li(S7, SEED0)
        a.li(A0, levels)
        a.jal("build")
        a.mov(S5, V0)
        a.li(S6, 0)          # round
        a.label("rounds")
        a.li(T0, rounds)
        a.bge(S6, T0, "end")
        a.li(S2, 0)          # checksum accumulator (reset per round)
        a.mov(A0, S5)
        a.mov(A1, S6)
        a.jal("shuffle")
        a.addi(S6, S6, 1)
        a.j("rounds")
        a.label("end")
        a.andi(S2, S2, MASK32)
        a.li(T0, res_chk)
        a.sw(S2, T0, 0)
        a.halt()

        # ---- build(level) -> node -------------------------------------
        a.func("build", S0, S1)
        from .common import emit_lcg
        emit_lcg(a, S7, T0)
        a.alloc(S0, ZERO, node_bytes)
        a.andi(T0, S7, 0xFFFF)
        a.sw(T0, S0, OFF_VALUE)
        a.li(T1, 1)
        a.bne(A0, T1, "b_inner")
        a.mov(V0, S0)
        a.leave(S0, S1)
        a.label("b_inner")
        a.addi(S1, A0, -1)
        a.mov(A0, S1)
        a.jal("build")
        a.sw(V0, S0, OFF_LEFT)
        a.mov(A0, S1)
        a.jal("build")
        a.sw(V0, S0, OFF_RIGHT)
        a.mov(V0, S0)
        a.leave(S0, S1)

        # ---- shuffle(A0=node, A1=round); checksum accumulates in S2 ----
        a.label("shuffle")
        a.bnez(A0, "s_rec")
        a.ret()
        a.label("s_rec")
        a.push(RA, S0, S1)
        emit_jump_prefetch(a, impl, A0, OFF_JP, T0)
        if queue is not None:
            queue.update(A0, OFF_JP, T0, T1, T2)
        a.mov(S0, A0)
        a.lw(T0, S0, OFF_VALUE, pad=NODE_CLASS, tag="lds")
        a.add(S2, S2, T0)
        a.lw(T1, S0, OFF_LEFT, pad=NODE_CLASS, tag="lds")
        a.lw(T2, S0, OFF_RIGHT, pad=NODE_CLASS, tag="lds")
        a.beqz(T1, "s_kids")
        a.beqz(T2, "s_kids")
        # data-dependent child swap
        a.add(S1, T0, A1)
        a.andi(S1, S1, 1)
        a.beqz(S1, "s_noswap")
        a.sw(T2, S0, OFF_LEFT)
        a.sw(T1, S0, OFF_RIGHT)
        a.label("s_noswap")
        # compare-exchange with the (possibly new) left child
        a.lw(T1, S0, OFF_LEFT, pad=NODE_CLASS, tag="lds")
        a.lw(S1, T1, OFF_VALUE, pad=NODE_CLASS, tag="lds")
        a.bge(S1, T0, "s_kids")
        a.sw(S1, S0, OFF_VALUE)
        a.sw(T0, T1, OFF_VALUE)
        a.label("s_kids")
        a.lw(A0, S0, OFF_LEFT, pad=NODE_CLASS, tag="lds")
        a.jal("shuffle")
        a.lw(A0, S0, OFF_RIGHT, pad=NODE_CLASS, tag="lds")
        a.jal("shuffle")
        a.pop(RA, S0, S1)
        a.ret()

        program = a.assemble(f"bisort[{variant}]")
        exp_chk, exp_total = mirror(levels, rounds)

        def check(interp: Interpreter) -> None:
            got = interp.memory.load(res_chk)
            assert got == exp_chk, f"bisort: checksum {got} != {exp_chk}"

        return BuiltProgram(
            program=program,
            expected={"checksum": exp_chk, "value_total": exp_total},
            check=check,
        )
