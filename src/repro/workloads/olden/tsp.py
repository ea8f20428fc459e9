"""Olden ``tsp``: travelling-salesman tour construction.

The kernel builds a linked list of city records and constructs a tour by
repeated nearest-neighbour selection: each step scans the remaining list
for the city closest to the current one (floating-point distance), splices
it out, and extends the tour.  The structure is "large and extremely
volatile" (Table 1): the remaining list is spliced at every step, so any
jump-pointers installed at creation decay rapidly — the paper recommends
*not* implementing software JPP for tsp, and the ``sw:queue`` variant
exists to demonstrate the resulting slowdown.

City record (bytes): {x@0, y@4, next@8, id@12[, jp@16]} — 16 bytes in the
16-byte class baseline (no padding: hardware JPP has nowhere to store
jump-pointers, which is fine, it would not help anyway), 20 bytes (32-byte
class) with a software jump-pointer.
"""

from __future__ import annotations

from ...core.jump_queue import SoftwareJumpQueue, emit_jump_prefetch
from ...isa.assembler import Assembler
from ...isa.interpreter import Interpreter
from ...isa.registers import (
    A0,
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
    T5,
    T6,
    T7,
    ZERO,
)
from ..base import BuiltProgram, Workload, parse_variant
from ..registry import register
from .common import lcg

OFF_X = 0
OFF_Y = 4
OFF_NEXT = 8
OFF_ID = 12
OFF_JP = 16
SEED0 = 0x7E57C0DE
BIG = 1e30


def _coords(n: int) -> list[tuple[float, float]]:
    seed = SEED0
    pts = []
    for __ in range(n):
        seed = lcg(seed)
        x = (seed >> 8) / float(1 << 24)
        seed = lcg(seed)
        y = (seed >> 8) / float(1 << 24)
        pts.append((x, y))
    return pts


def mirror(n: int) -> float:
    """Nearest-neighbour tour length; identical arithmetic to the kernel."""
    pts = _coords(n)
    remaining = list(range(1, n))
    cx, cy = pts[0]
    total = 0.0
    while remaining:
        best_d = BIG
        best_pos = 0
        for pos, i in enumerate(remaining):
            dx = pts[i][0] - cx
            dy = pts[i][1] - cy
            d = dx * dx + dy * dy
            if d < best_d:
                best_d = d
                best_pos = pos
        i = remaining.pop(best_pos)
        cx, cy = pts[i]
        import math

        total = total + math.sqrt(best_d)
    return total


@register
class TSP(Workload):
    name = "tsp"
    structure = "city list, spliced at every step (large, extremely volatile)"
    idioms = ()
    variants = ("baseline", "sw:queue", "coop:queue")
    expectation = (
        "jump-pointers decay as the list is spliced: software JPP is pure "
        "overhead; hardware JPP finds no padding and does nothing"
    )

    @classmethod
    def default_params(cls) -> dict:
        return {"n": 160, "interval": 8}

    @classmethod
    def test_params(cls) -> dict:
        return {"n": 20, "interval": 4}

    def build_variant(self, variant: str) -> BuiltProgram:
        impl, idiom = parse_variant(variant)
        n: int = self.params["n"]
        interval: int = self.params["interval"]
        pts = _coords(n)

        a = Assembler()
        res_len = a.word(0)
        rem_head = a.word(0)
        s_x = a.array([p[0] for p in pts])
        s_y = a.array([p[1] for p in pts])
        queue = SoftwareJumpQueue(a, interval, "tjq") if impl != "baseline" else None
        node_bytes = 20 if impl != "baseline" else 16

        # ---- build the city list (prepend n-1 .. 1; city 0 is the start)
        a.label("main")
        a.li(S0, n - 1)
        a.label("b_loop")
        a.blez(S0, "tour")
        a.alloc(T0, ZERO, node_bytes)
        a.slli(T1, S0, 2)
        a.addi(T2, T1, s_x)
        a.lw(T3, T2, 0)
        a.sw(T3, T0, OFF_X)
        a.addi(T2, T1, s_y)
        a.lw(T3, T2, 0)
        a.sw(T3, T0, OFF_Y)
        a.sw(S0, T0, OFF_ID)
        a.li(T4, rem_head)
        a.lw(T5, T4, 0)
        a.sw(T5, T0, OFF_NEXT)
        a.sw(T0, T4, 0)
        if queue is not None:
            # The list is built by prepending, so creation order is the
            # reverse of traversal order: install backward.
            queue.update(T0, OFF_JP, T5, T6, T7, reverse=True)
        a.addi(S0, S0, -1)
        a.j("b_loop")

        # ---- nearest-neighbour tour ------------------------------------
        # S2/S3 = current x/y; S4 = tour length; S5 = remaining count
        a.label("tour")
        a.li(T0, s_x)
        a.lw(S2, T0, 0)
        a.li(T0, s_y)
        a.lw(S3, T0, 0)
        a.fli(S4, 0.0)
        a.li(S5, n - 1)
        a.label("step")
        a.beqz(S5, "end")
        a.fli(S6, BIG)      # best distance
        a.li(S7, 0)         # best prev-slot
        a.li(S0, rem_head)  # prev slot
        a.lw(S1, S0, 0, tag="lds")
        a.label("scan")
        a.beqz(S1, "pick")
        emit_jump_prefetch(a, impl, S1, OFF_JP, T5)
        a.lw(T0, S1, OFF_X, pad=32 if impl != "baseline" else 16, tag="lds")
        a.lw(T1, S1, OFF_Y, pad=32 if impl != "baseline" else 16, tag="lds")
        a.fsub(T0, T0, S2)
        a.fsub(T1, T1, S3)
        a.fmul(T0, T0, T0)
        a.fmul(T1, T1, T1)
        a.fadd(T0, T0, T1)
        a.flt(T2, T0, S6)
        a.beqz(T2, "no_best")
        a.mov(S6, T0)
        a.mov(S7, S0)
        a.label("no_best")
        a.addi(S0, S1, OFF_NEXT)
        a.lw(S1, S1, OFF_NEXT, pad=32 if impl != "baseline" else 16, tag="lds")
        a.j("scan")
        a.label("pick")
        a.lw(T0, S7, 0, tag="lds")     # best node
        a.lw(S2, T0, OFF_X, tag="lds")
        a.lw(S3, T0, OFF_Y, tag="lds")
        a.lw(T1, T0, OFF_NEXT, tag="lds")
        a.sw(T1, S7, 0)                # splice out
        a.fsqrt(T2, S6)
        a.fadd(S4, S4, T2)
        a.addi(S5, S5, -1)
        a.j("step")

        a.label("end")
        a.li(A0, res_len)
        a.sw(S4, A0, 0)
        a.halt()

        program = a.assemble(f"tsp[{variant}]")
        expected = mirror(n)

        def check(interp: Interpreter) -> None:
            got = interp.memory.load(res_len)
            assert got == expected, f"tsp: tour length {got!r} != {expected!r}"

        return BuiltProgram(
            program=program,
            expected={"tour_length": expected},
            check=check,
        )
