"""Olden ``voronoi``: divide-and-conquer computational geometry.

Substitution (see DESIGN.md): the original computes a Voronoi diagram via
quad-edge Delaunay triangulation; this kernel runs the same *shape* of
computation — a recursive divide-and-conquer over an x-sorted point set
(closest-pair with a strip merge), where each merge builds and walks a
small linked list of strip entries.  The paper uses voronoi as a program
with a *very small memory-latency component* where "useless prefetches
contend for memory resources with array based cache misses" and software
prefetching produces a net slowdown (Section 4.2); the queue-jumping
variants on the strip lists reproduce exactly that behaviour.

Strip node layout (bytes): {index@0, next@4[, jp@8]} (16-byte class).
"""

from __future__ import annotations

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
    S3,
    S4,
    S5,
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

N_IDX = 0
N_NEXT = 4
N_JP = 8
SEED0 = 0x0DDBA11
BIG = 1e30
#: strip pairs examined per entry (a y-sorted strip needs at most 7; the
#: x-ordered approximation checks a fixed window — identical in kernel and
#: mirror, so results still verify exactly)
WINDOW = 6


def _points(n: int) -> list[tuple[float, float]]:
    seed = SEED0
    pts = []
    for __ in range(n):
        seed = lcg(seed)
        x = (seed >> 8) / float(1 << 24)
        seed = lcg(seed)
        y = (seed >> 8) / float(1 << 24)
        pts.append((x, y))
    pts.sort()
    return pts


def mirror(n: int) -> float:
    pts = _points(n)

    def solve(lo: int, hi: int) -> float:
        if hi - lo <= 3:
            best = BIG
            for i in range(lo, hi):
                for j in range(i + 1, hi):
                    dx = pts[i][0] - pts[j][0]
                    dy = pts[i][1] - pts[j][1]
                    d = dx * dx + dy * dy
                    if d < best:
                        best = d
            return best
        mid = (lo + hi) // 2
        xm = pts[mid][0]
        d = solve(lo, mid)
        dr = solve(mid, hi)
        if dr < d:
            d = dr
        # collect the strip (prepend -> list order is descending index;
        # identical order in the kernel)
        strip = []
        for i in range(lo, hi):
            dx = pts[i][0] - xm
            if dx * dx < d:
                strip.insert(0, i)
        # compare each entry against the next WINDOW entries in list order
        for k, i in enumerate(strip):
            for j in strip[k + 1 : k + 1 + WINDOW]:
                dx = pts[i][0] - pts[j][0]
                dy = pts[i][1] - pts[j][1]
                dd = dx * dx + dy * dy
                if dd < d:
                    d = dd
        return d

    return solve(0, n)


@register
class Voronoi(Workload):
    name = "voronoi"
    structure = "D&C over sorted points; small transient strip lists (compute-bound)"
    idioms = ()
    variants = ("baseline", "sw:queue", "coop:queue")
    expectation = (
        "tiny memory component: prefetch overhead and useless prefetches "
        "contending with array misses produce a net slowdown"
    )

    @classmethod
    def default_params(cls) -> dict:
        return {"n": 256, "interval": 8}

    @classmethod
    def test_params(cls) -> dict:
        return {"n": 24, "interval": 4}

    def build_variant(self, variant: str) -> BuiltProgram:
        impl, idiom = parse_variant(variant)
        n: int = self.params["n"]
        interval: int = self.params["interval"]
        pts = _points(n)

        a = Assembler()
        res = a.word(0)
        s_x = a.array([p[0] for p in pts])
        s_y = a.array([p[1] for p in pts])
        queue = SoftwareJumpQueue(a, interval, "vjq") if impl != "baseline" else None
        node_bytes = 12 if impl != "baseline" else 8

        a.label("main")
        a.li(A0, 0)
        a.li(A1, n)
        a.jal("solve")
        a.li(T0, res)
        a.sw(V0, T0, 0)
        a.halt()

        # ---- dist2(T3=i, T4=j) -> V0 (clobbers T0..T2) -----------------
        a.label("dist2")
        a.slli(T0, T3, 2)
        a.addi(T1, T0, s_x)
        a.lw(T1, T1, 0)
        a.addi(T2, T0, s_y)
        a.lw(T2, T2, 0)
        a.slli(T0, T4, 2)
        a.addi(V0, T0, s_x)
        a.lw(V0, V0, 0)
        a.fsub(T1, T1, V0)
        a.addi(V0, T0, s_y)
        a.lw(V0, V0, 0)
        a.fsub(T2, T2, V0)
        a.fmul(T1, T1, T1)
        a.fmul(T2, T2, T2)
        a.fadd(V0, T1, T2)
        a.ret()

        # ---- solve(A0=lo, A1=hi) -> min d^2 ----------------------------
        a.func("solve", S0, S1, S2, S3, S4, S5)
        a.mov(S0, A0)            # lo
        a.mov(S1, A1)            # hi
        a.sub(T0, S1, S0)
        a.slti(T0, T0, 4)
        a.beqz(T0, "s_divide")
        # brute force (min accumulates in S3, as in the divide path)
        a.fli(S3, BIG)
        a.mov(S2, S0)            # i
        a.label("bf_i")
        a.addi(T0, S1, -1)
        a.bge(S2, T0, "s_ret")
        a.addi(S4, S2, 1)        # j
        a.label("bf_j")
        a.bge(S4, S1, "bf_inext")
        a.mov(T3, S2)
        a.mov(T4, S4)
        a.push(RA)
        a.jal("dist2")
        a.pop(RA)
        a.flt(T0, V0, S3)
        a.beqz(T0, "bf_nj")
        a.mov(S3, V0)
        a.label("bf_nj")
        a.addi(S4, S4, 1)
        a.j("bf_j")
        a.label("bf_inext")
        a.addi(S2, S2, 1)
        a.j("bf_i")

        a.label("s_divide")
        a.add(S2, S0, S1)
        a.srli(S2, S2, 1)        # mid
        a.mov(A0, S0)
        a.mov(A1, S2)
        a.jal("solve")
        a.mov(S3, V0)            # d = left
        a.mov(A0, S2)
        a.mov(A1, S1)
        a.jal("solve")
        a.flt(T0, V0, S3)
        a.beqz(T0, "s_strip")
        a.mov(S3, V0)
        a.label("s_strip")
        # xm
        a.slli(T0, S2, 2)
        a.addi(T0, T0, s_x)
        a.lw(S4, T0, 0)          # xm
        a.li(S5, 0)              # strip head
        a.mov(S2, S0)            # i
        a.label("st_loop")
        a.bge(S2, S1, "st_done")
        a.slli(T0, S2, 2)
        a.addi(T0, T0, s_x)
        a.lw(T1, T0, 0)
        a.fsub(T1, T1, S4)
        a.fmul(T1, T1, T1)
        a.flt(T2, T1, S3)
        a.beqz(T2, "st_next")
        a.alloc(T0, ZERO, node_bytes)
        a.sw(S2, T0, N_IDX)
        a.sw(S5, T0, N_NEXT)     # prepend
        a.mov(S5, T0)
        if queue is not None:
            queue.update(T0, N_JP, T1, T2, T4, reverse=True)
        a.label("st_next")
        a.addi(S2, S2, 1)
        a.j("st_loop")
        a.label("st_done")
        # pair comparisons along the strip list
        a.label("pair_outer")
        a.beqz(S5, "s_ret")
        emit_jump_prefetch(a, impl, S5, N_JP, T0)
        a.lw(S2, S5, N_IDX, pad=16, tag="lds")
        a.lw(S4, S5, N_NEXT, pad=16, tag="lds")  # inner cursor
        a.li(T4, WINDOW)
        a.push(T4)
        a.label("pair_inner")
        a.beqz(S4, "pair_adv")
        a.lw(T4, SP, 0)          # remaining window
        a.beqz(T4, "pair_adv")
        a.addi(T4, T4, -1)
        a.sw(T4, SP, 0)
        a.mov(T3, S2)
        a.lw(T4, S4, N_IDX, pad=16, tag="lds")
        a.push(RA)
        a.jal("dist2")
        a.pop(RA)
        a.flt(T0, V0, S3)
        a.beqz(T0, "pair_no")
        a.mov(S3, V0)
        a.label("pair_no")
        a.lw(S4, S4, N_NEXT, pad=16, tag="lds")
        a.j("pair_inner")
        a.label("pair_adv")
        a.pop(T4)
        a.lw(S5, S5, N_NEXT, pad=16, tag="lds")
        a.j("pair_outer")

        a.label("s_ret")
        a.mov(V0, S3)
        a.leave(S0, S1, S2, S3, S4, S5)

        program = a.assemble(f"voronoi[{variant}]")
        expected = mirror(n)

        def check(interp: Interpreter) -> None:
            got = interp.memory.load(res)
            assert got == expected, f"voronoi: {got!r} != {expected!r}"

        return BuiltProgram(
            program=program,
            expected={"min_dist2": expected},
            check=check,
        )
