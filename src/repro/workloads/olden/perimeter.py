"""Olden ``perimeter``: perimeter of a region stored as a quadtree.

A quadtree is built once (pseudo-random subdivision down to ``max_level``)
and traversed once to sum the boundary contribution of the black leaves.
The substitution from the original (image-adjacency neighbour finding) is
documented in DESIGN.md: what the paper uses perimeter for is a
*single-pass* recursive traversal of a large tree, which is exactly what
this kernel preserves.

The single pass is the interesting property: software/cooperative queue
jumping installs jump-pointers *during creation* (allocation order equals
the later preorder traversal), so the one traversal is prefetched.
Hardware JPP needs a first traversal to install jump-pointers and so wins
nothing ("for single pass programs like perimeter and mst, hardware JPP
is useless", Section 4.2).

Node layout (bytes): {color@0, level@4, child0..3@8..20[, jp@24]} — 24
bytes baseline, 28 with a software jump-pointer; both in the 32-byte
class, so the hardware slot exists at +28.
"""

from __future__ import annotations

from ...core.jump_queue import SoftwareJumpQueue, emit_jump_prefetch
from ...isa.assembler import Assembler
from ...isa.interpreter import Interpreter
from ...isa.registers import (
    A0,
    RA,
    S0,
    S1,
    S2,
    S3,
    S6,
    S7,
    T0,
    T1,
    T2,
    T3,
    V0,
    ZERO,
)
from ..base import BuiltProgram, Workload, parse_variant
from ..registry import register
from .common import emit_lcg, lcg

OFF_COLOR = 0
OFF_LEVEL = 4
OFF_CHILD = 8       # four words
OFF_JP = 24
NODE_CLASS = 32
SEED0 = 0x0BADCAFE


def mirror(max_level: int) -> tuple[int, int]:
    """Returns (perimeter, node_count); replicates the build/traversal."""
    seed = SEED0

    def build(level: int):
        nonlocal seed
        seed = lcg(seed)
        s = seed
        if level == 0 or (s >> 16) & 3 == 0:
            return ("leaf", s & 1, level)
        children = [build(level - 1) for __ in range(4)]
        return ("node", children, level)

    root = build(max_level)
    count = 0

    def walk(n):
        nonlocal count
        count += 1
        if n[0] == "leaf":
            return (1 << n[2]) if n[1] else 0
        total = 0
        for c in n[1]:
            total += walk(c)
        return total

    return walk(root), count


@register
class Perimeter(Workload):
    name = "perimeter"
    structure = "large quadtree, built once, traversed once (single pass)"
    idioms = ("queue",)
    variants = ("baseline", "sw:queue", "coop:queue")
    expectation = (
        "software/cooperative queue jumping (installed at creation) "
        "prefetches the single traversal; hardware JPP is useless"
    )

    @classmethod
    def default_params(cls) -> dict:
        return {"max_level": 7, "interval": 8}

    @classmethod
    def test_params(cls) -> dict:
        return {"max_level": 4, "interval": 4}

    def build_variant(self, variant: str) -> BuiltProgram:
        impl, idiom = parse_variant(variant)
        max_level: int = self.params["max_level"]
        interval: int = self.params["interval"]

        a = Assembler()
        res_perim = a.word(0)
        seed_word = a.word(SEED0)
        queue = SoftwareJumpQueue(a, interval, "pjq") if impl != "baseline" else None
        node_bytes = 28 if impl != "baseline" else 24

        a.label("main")
        a.li(T0, seed_word)
        a.lw(S7, T0, 0)          # global LCG seed lives in S7
        a.li(A0, max_level)
        a.jal("build")
        a.mov(A0, V0)
        a.jal("perim")
        a.li(T0, res_perim)
        a.sw(V0, T0, 0)
        a.halt()

        # ---- build(level) -> node ------------------------------------
        a.func("build", S0, S1, S2)
        a.mov(S1, A0)            # level
        emit_lcg(a, S7, T0)      # advance seed once per node
        a.alloc(S0, ZERO, node_bytes)
        if queue is not None:
            queue.update(S0, OFF_JP, T0, T1, T2)
        a.sw(S1, S0, OFF_LEVEL)
        a.beqz(S1, "b_leaf")
        a.srli(T0, S7, 16)
        a.andi(T0, T0, 3)
        a.bnez(T0, "b_inner")
        a.label("b_leaf")
        a.andi(T0, S7, 1)
        a.sw(T0, S0, OFF_COLOR)  # leaf: color from seed; children stay null
        a.mov(V0, S0)
        a.leave(S0, S1, S2)
        a.label("b_inner")
        a.li(T0, -1)
        a.sw(T0, S0, OFF_COLOR)  # internal marker
        a.li(S2, 0)
        a.label("b_kids")
        a.addi(A0, S1, -1)
        a.jal("build")
        a.slli(T1, S2, 2)
        a.add(T1, T1, S0)
        a.sw(V0, T1, OFF_CHILD)
        a.addi(S2, S2, 1)
        a.slti(T2, S2, 4)
        a.bnez(T2, "b_kids")
        a.mov(V0, S0)
        a.leave(S0, S1, S2)

        # ---- perim(node) -> contribution ------------------------------
        a.label("perim")
        a.bnez(A0, "p_rec")
        a.li(V0, 0)
        a.ret()
        a.label("p_rec")
        a.push(RA, S0, S1, S2)
        emit_jump_prefetch(a, impl, A0, OFF_JP, T0)
        a.mov(S0, A0)
        a.lw(T0, S0, OFF_COLOR, pad=NODE_CLASS, tag="lds")
        a.li(T1, -1)
        a.beq(T0, T1, "p_inner")
        # leaf: contribution = color ? 1 << level : 0
        a.beqz(T0, "p_zero")
        a.lw(T2, S0, OFF_LEVEL, pad=NODE_CLASS, tag="lds")
        a.li(V0, 1)
        a.sll(V0, V0, T2)
        a.pop(RA, S0, S1, S2)
        a.ret()
        a.label("p_zero")
        a.li(V0, 0)
        a.pop(RA, S0, S1, S2)
        a.ret()
        a.label("p_inner")
        a.li(S1, 0)   # accumulator
        a.li(S2, 0)   # child index
        a.label("p_kids")
        a.slli(T1, S2, 2)
        a.add(T1, T1, S0)
        a.lw(A0, T1, OFF_CHILD, pad=NODE_CLASS, tag="lds")
        a.jal("perim")
        a.add(S1, S1, V0)
        a.addi(S2, S2, 1)
        a.slti(T2, S2, 4)
        a.bnez(T2, "p_kids")
        a.mov(V0, S1)
        a.pop(RA, S0, S1, S2)
        a.ret()

        program = a.assemble(f"perimeter[{variant}]")
        expected, count = mirror(max_level)

        def check(interp: Interpreter) -> None:
            got = interp.memory.load(res_perim)
            assert got == expected, f"perimeter: {got} != {expected}"

        return BuiltProgram(
            program=program,
            expected={"perimeter": expected, "nodes": count},
            check=check,
        )
