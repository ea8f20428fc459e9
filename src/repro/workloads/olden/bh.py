"""Olden ``bh``: Barnes-Hut N-body force computation.

A fixed-depth quadtree over the unit square (see DESIGN.md for the
substitution note: the original builds an adaptive octree; this kernel
keeps the properties the paper relies on — a data-dependent tree walk per
body with an opening test, heavy floating-point work, and a body list as
the only regular backbone).  Per step each body walks the tree: a cell far
enough away (opening test ``s^2 < theta^2 * d^2``) contributes its
aggregate mass; otherwise its four children are visited.

The walk order depends on the body's coordinates, so the tree itself is
hard to prefetch even with jump-pointers ("data dependent traversals
(tree searches) are difficult to prefetch even using jump-pointers",
Section 2.3); only the body list is queue-jumped, and the paper's
characterization expects little overall benefit (bh's memory component is
small).

Layouts (bytes): cell {mass@0, cx@4, cy@8, child0..3@12..24} (28 -> class
32); body {x@0, y@4, mass@8, next@12[, jp@16]}.
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
    S4,
    S5,
    S6,
    S7,
    T0,
    T1,
    T2,
    T3,
    T4,
    V0,
    ZERO,
)
from ..base import BuiltProgram, Workload, parse_variant
from ..registry import register
from .common import lcg

C_MASS = 0
C_CX = 4
C_CY = 8
C_CHILD = 12     # four words
CELL_BYTES = 28  # -> 32-byte class
B_X = 0
B_Y = 4
B_MASS = 8
B_NEXT = 12
B_JP = 16
SEED0 = 0xB0D1E5
EPS = 0.05
THETA2 = 0.25


def _bodies(n: int) -> list[tuple[float, float, float]]:
    seed = SEED0
    out = []
    for __ in range(n):
        seed = lcg(seed)
        x = (seed >> 8) / float(1 << 24)
        seed = lcg(seed)
        y = (seed >> 8) / float(1 << 24)
        seed = lcg(seed)
        m = 0.5 + (seed >> 8) / float(1 << 24)
        out.append((x, y, m))
    return out


def mirror(n: int, depth: int) -> float:
    """Builds the same fixed-depth quadtree and sums all body forces."""
    bodies = _bodies(n)

    class Cell:
        __slots__ = ("mass", "cx", "cy", "kids")

        def __init__(self):
            self.mass = 0.0
            self.cx = 0.0
            self.cy = 0.0
            self.kids = None

    def make(level: int) -> Cell:
        c = Cell()
        if level < depth:
            c.kids = [make(level + 1) for __ in range(4)]
        return c

    root = make(0)
    for x, y, m in bodies:
        cell = root
        x0 = y0 = 0.0
        size = 1.0
        while True:
            cell.mass = cell.mass + m
            cell.cx = cell.cx + x * m
            cell.cy = cell.cy + y * m
            if cell.kids is None:
                break
            size = size * 0.5
            q = 0
            if x >= x0 + size:
                q += 1
                x0 = x0 + size
            if y >= y0 + size:
                q += 2
                y0 = y0 + size
            cell = cell.kids[q]

    def normalize(c: Cell) -> None:
        if c.mass > 0.0:
            c.cx = c.cx / c.mass
            c.cy = c.cy / c.mass
        if c.kids:
            for k in c.kids:
                normalize(k)

    normalize(root)

    # sizes per level: s^2 at level L is (1/2^L)^2
    def force(x: float, y: float, c: Cell, s2: float) -> float:
        if c.mass == 0.0:
            return 0.0
        dx = x - c.cx
        dy = y - c.cy
        d2 = dx * dx + dy * dy
        if c.kids is None or s2 < THETA2 * d2:
            return c.mass / (d2 + EPS)
        total = 0.0
        for k in c.kids:
            total = total + force(x, y, k, s2 * 0.25)
        return total

    total = 0.0
    for x, y, __ in bodies:
        total = total + force(x, y, root, 1.0)
    return total


@register
class BarnesHut(Workload):
    name = "bh"
    structure = "quadtree + body list; data-dependent walks, FP heavy"
    idioms = ("queue",)
    variants = ("baseline", "sw:queue", "coop:queue")
    expectation = (
        "small memory component and data-dependent tree walks: queue "
        "jumping on the body list gives little; software overhead can hurt"
    )

    @classmethod
    def default_params(cls) -> dict:
        return {"n": 96, "depth": 4, "interval": 8}

    @classmethod
    def test_params(cls) -> dict:
        return {"n": 12, "depth": 2, "interval": 4}

    def build_variant(self, variant: str) -> BuiltProgram:
        impl, idiom = parse_variant(variant)
        n: int = self.params["n"]
        depth: int = self.params["depth"]
        interval: int = self.params["interval"]
        bodies = _bodies(n)

        a = Assembler()
        res = a.word(0)
        body_head = a.word(0)
        s_x = a.array([b[0] for b in bodies])
        s_y = a.array([b[1] for b in bodies])
        s_m = a.array([b[2] for b in bodies])
        queue = SoftwareJumpQueue(a, interval, "ghq") if impl != "baseline" else None
        body_bytes = 20 if impl != "baseline" else 16

        a.label("main")
        # build tree
        a.li(A0, 0)
        a.jal("mkcell")
        a.mov(S5, V0)  # root

        # build body list (prepend n-1..0 so list order = index order) and
        # insert masses into the tree path
        a.li(S0, n - 1)
        a.label("b_loop")
        a.blt(S0, ZERO, "normalize")
        a.alloc(S1, ZERO, body_bytes)
        a.slli(T0, S0, 2)
        a.addi(T1, T0, s_x)
        a.lw(S2, T1, 0)
        a.sw(S2, S1, B_X)
        a.addi(T1, T0, s_y)
        a.lw(S3, T1, 0)
        a.sw(S3, S1, B_Y)
        a.addi(T1, T0, s_m)
        a.lw(S4, T1, 0)
        a.sw(S4, S1, B_MASS)
        a.li(T2, body_head)
        a.lw(T3, T2, 0)
        a.sw(T3, S1, B_NEXT)
        a.sw(S1, T2, 0)
        if queue is not None:
            queue.update(S1, B_JP, T0, T1, T2, reverse=True)
        # insert into tree: walk from root, accumulating mass/cm
        a.mov(T0, S5)        # cell
        a.fli(T1, 0.0)       # x0
        a.fli(T2, 0.0)       # y0
        a.fli(T3, 1.0)       # size
        a.label("ins_loop")
        a.lw(T4, T0, C_MASS, pad=32, tag="lds")
        a.fadd(T4, T4, S4)
        a.sw(T4, T0, C_MASS)
        a.fmul(T4, S2, S4)
        a.lw(S6, T0, C_CX, pad=32, tag="lds")
        a.fadd(S6, S6, T4)
        a.sw(S6, T0, C_CX)
        a.fmul(T4, S3, S4)
        a.lw(S6, T0, C_CY, pad=32, tag="lds")
        a.fadd(S6, S6, T4)
        a.sw(S6, T0, C_CY)
        a.lw(S6, T0, C_CHILD, pad=32, tag="lds")  # child0 (null => leaf)
        a.beqz(S6, "ins_done")
        a.fli(S7, 0.5)
        a.fmul(T3, T3, S7)
        a.li(S6, 0)          # quadrant
        a.fadd(S7, T1, T3)   # x0 + size
        a.flt(V0, S2, S7)
        a.bnez(V0, "ins_ylow")
        a.addi(S6, S6, 1)
        a.mov(T1, S7)
        a.label("ins_ylow")
        a.fadd(S7, T2, T3)
        a.flt(V0, S3, S7)
        a.bnez(V0, "ins_pick")
        a.addi(S6, S6, 2)
        a.mov(T2, S7)
        a.label("ins_pick")
        a.slli(S6, S6, 2)
        a.add(S6, S6, T0)
        a.lw(T0, S6, C_CHILD, pad=32, tag="lds")
        a.j("ins_loop")
        a.label("ins_done")
        a.addi(S0, S0, -1)
        a.j("b_loop")

        # normalize centres of mass
        a.label("normalize")
        a.mov(A0, S5)
        a.jal("norm")

        # force sweep over the body list
        a.li(T0, body_head)
        a.lw(S1, T0, 0, tag="lds")
        a.fli(S7, 0.0)       # total force
        a.label("f_loop")
        a.beqz(S1, "end")
        emit_jump_prefetch(a, impl, S1, B_JP, T4)
        a.lw(S2, S1, B_X, pad=32 if impl != "baseline" else 16, tag="lds")
        a.lw(S3, S1, B_Y, pad=32 if impl != "baseline" else 16, tag="lds")
        a.mov(A0, S5)
        a.fli(S4, 1.0)       # s^2 at root
        a.jal("force")
        a.fadd(S7, S7, V0)
        a.lw(S1, S1, B_NEXT, pad=32 if impl != "baseline" else 16, tag="lds")
        a.j("f_loop")
        a.label("end")
        a.li(T0, res)
        a.sw(S7, T0, 0)
        a.halt()

        # ---- mkcell(A0=level) -> cell ----------------------------------
        a.func("mkcell", S0, S1, S2)
        a.alloc(S0, ZERO, CELL_BYTES)
        a.li(T0, depth)
        a.bge(A0, T0, "mk_leaf")
        a.addi(S1, A0, 1)
        a.li(S2, 0)
        a.label("mk_kids")
        a.mov(A0, S1)
        a.jal("mkcell")
        a.slli(T1, S2, 2)
        a.add(T1, T1, S0)
        a.sw(V0, T1, C_CHILD)
        a.addi(S2, S2, 1)
        a.slti(T2, S2, 4)
        a.bnez(T2, "mk_kids")
        a.label("mk_leaf")
        a.mov(V0, S0)
        a.leave(S0, S1, S2)

        # ---- norm(A0=cell) ---------------------------------------------
        a.func("norm", S0, S1)
        a.mov(S0, A0)
        a.lw(T0, S0, C_MASS, pad=32, tag="lds")
        a.feq(T1, T0, ZERO)
        a.bnez(T1, "n_kids")
        a.lw(T2, S0, C_CX, pad=32, tag="lds")
        a.fdiv(T2, T2, T0)
        a.sw(T2, S0, C_CX)
        a.lw(T2, S0, C_CY, pad=32, tag="lds")
        a.fdiv(T2, T2, T0)
        a.sw(T2, S0, C_CY)
        a.label("n_kids")
        a.lw(T0, S0, C_CHILD, pad=32, tag="lds")
        a.beqz(T0, "n_done")
        a.li(S1, 0)
        a.label("n_loop")
        a.slli(T1, S1, 2)
        a.add(T1, T1, S0)
        a.lw(A0, T1, C_CHILD, pad=32, tag="lds")
        a.jal("norm")
        a.addi(S1, S1, 1)
        a.slti(T2, S1, 4)
        a.bnez(T2, "n_loop")
        a.label("n_done")
        a.leave(S0, S1)

        # ---- force(A0=cell, S2=x, S3=y, S4=s^2) -> V0 -------------------
        # S2/S3 are global for the current body; S4 is saved/scaled around
        # recursive calls.
        a.label("force")
        a.push(RA, S0, S1)
        a.mov(S0, A0)
        a.lw(T0, S0, C_MASS, pad=32, tag="lds")
        a.feq(T1, T0, ZERO)
        a.beqz(T1, "f_live")
        a.fli(V0, 0.0)
        a.pop(RA, S0, S1)
        a.ret()
        a.label("f_live")
        a.lw(T1, S0, C_CX, pad=32, tag="lds")
        a.fsub(T1, S2, T1)
        a.lw(T2, S0, C_CY, pad=32, tag="lds")
        a.fsub(T2, S3, T2)
        a.fmul(T1, T1, T1)
        a.fmul(T2, T2, T2)
        a.fadd(T1, T1, T2)   # d^2
        a.lw(T3, S0, C_CHILD, pad=32, tag="lds")
        a.beqz(T3, "f_far")  # leaf: use aggregate
        a.fli(T2, THETA2)
        a.fmul(T2, T2, T1)
        a.flt(T4, S4, T2)
        a.beqz(T4, "f_near")
        a.label("f_far")
        a.fli(T2, EPS)
        a.fadd(T1, T1, T2)
        a.fdiv(V0, T0, T1)   # mass / (d^2 + eps)
        a.pop(RA, S0, S1)
        a.ret()
        a.label("f_near")
        a.push(S4)
        a.fli(T2, 0.25)
        a.fmul(S4, S4, T2)   # child s^2
        a.fli(S1, 0.0)
        a.li(T0, 0)
        a.label("fk_loop")
        a.push(T0)
        a.slli(T1, T0, 2)
        a.add(T1, T1, S0)
        a.lw(A0, T1, C_CHILD, pad=32, tag="lds")
        a.jal("force")
        a.fadd(S1, S1, V0)
        a.pop(T0)
        a.addi(T0, T0, 1)
        a.slti(T1, T0, 4)
        a.bnez(T1, "fk_loop")
        a.pop(S4)
        a.mov(V0, S1)
        a.pop(RA, S0, S1)
        a.ret()

        program = a.assemble(f"bh[{variant}]")
        expected = mirror(n, depth)

        def check(interp: Interpreter) -> None:
            got = interp.memory.load(res)
            assert got == expected, f"bh: force total {got!r} != {expected!r}"

        return BuiltProgram(
            program=program,
            expected={"force_total": expected},
            check=check,
        )
