"""Olden ``treeadd``: recursive sum over a balanced binary tree.

Structure (Table 1): a single "backbone-only" binary tree, built once and
traversed ``passes`` times (the paper's run makes four passes).  The only
applicable idiom is **queue jumping**: each node gets one jump-pointer,
installed during creation (allocation order equals traversal order), and
the recursive sum prefetches through it.

Node layout (bytes): ``val@0, left@4, right@8`` — 12 bytes, allocated in
the 16-byte size class, so one padding word at offset 12 exists.  The
software variants store their explicit jump-pointer there; the baseline's
annotated loads (``pad=16``) let hardware JPP use the same word.

Expected shapes: hardware JPP spends the first pass installing
jump-pointers, forfeiting a quarter of the savings of the 4-pass run;
software/cooperative install during creation and optimize every pass.
"""

from __future__ import annotations

from ...core.jump_queue import SoftwareJumpQueue, emit_jump_prefetch
from ...errors import WorkloadError
from ...isa.assembler import Assembler
from ...isa.interpreter import Interpreter
from ...isa.registers import (
    A0,
    RA,
    S0,
    S1,
    S2,
    S3,
    T0,
    T1,
    T2,
    T3,
    V0,
    ZERO,
)
from ..base import BuiltProgram, Workload, parse_variant
from ..registry import register

NODE_SIZE = 16
OFF_VAL = 0
OFF_LEFT = 4
OFF_RIGHT = 8
OFF_JP = 12


@register
class TreeAdd(Workload):
    name = "treeadd"
    structure = "balanced binary tree (backbone-only), 4 traversals"
    idioms = ("queue",)
    variants = ("baseline", "sw:queue", "coop:queue")
    expectation = (
        "queue jumping helps all implementations; hardware forfeits the "
        "first of the four passes installing jump-pointers"
    )

    @classmethod
    def default_params(cls) -> dict:
        return {"levels": 11, "passes": 4, "interval": 8}

    @classmethod
    def test_params(cls) -> dict:
        return {"levels": 6, "passes": 2, "interval": 4}

    def build_variant(self, variant: str) -> BuiltProgram:
        impl, idiom = parse_variant(variant)
        levels: int = self.params["levels"]
        passes: int = self.params["passes"]
        interval: int = self.params["interval"]
        if levels < 1:
            raise WorkloadError(f"treeadd: levels must be >= 1, got {levels}")

        a = Assembler()
        result_addr = a.word(0)
        queue = SoftwareJumpQueue(a, interval, "tjq") if impl != "baseline" else None

        # ---- main ----------------------------------------------------
        a.label("main")
        a.li(A0, levels)
        a.jal("build")
        a.mov(S2, V0)  # root
        a.li(S3, passes)
        a.label("pass_loop")
        a.beqz(S3, "done")
        a.mov(A0, S2)
        a.jal("sum")
        a.li(T0, result_addr)
        a.sw(V0, T0, 0)
        a.addi(S3, S3, -1)
        a.j("pass_loop")
        a.label("done")
        a.halt()

        # ---- build(level) -> node -------------------------------------
        a.func("build", S0, S1)
        a.alloc(V0, ZERO, 12)  # val,left,right (padded to 16 by allocator)
        a.mov(S0, V0)
        a.li(T0, 1)
        a.sw(T0, S0, OFF_VAL)
        if queue is not None:
            # Jump-pointers are installed at creation: allocation order is
            # the traversal (preorder) order.
            queue.update(S0, OFF_JP, T0, T1, T2)
        a.li(T0, 1)
        a.bne(A0, T0, "build_inner")
        a.sw(ZERO, S0, OFF_LEFT)
        a.sw(ZERO, S0, OFF_RIGHT)
        a.mov(V0, S0)
        a.leave(S0, S1)
        a.label("build_inner")
        a.addi(S1, A0, -1)
        a.mov(A0, S1)
        a.jal("build")
        a.sw(V0, S0, OFF_LEFT)
        a.mov(A0, S1)
        a.jal("build")
        a.sw(V0, S0, OFF_RIGHT)
        a.mov(V0, S0)
        a.leave(S0, S1)

        # ---- sum(node) -> total ---------------------------------------
        a.label("sum")
        a.bnez(A0, "sum_rec")
        a.li(V0, 0)
        a.ret()
        a.label("sum_rec")
        a.push(RA, S0, S1)
        emit_jump_prefetch(a, impl, A0, OFF_JP, T0)
        a.mov(S0, A0)
        a.lw(S1, S0, OFF_VAL, pad=NODE_SIZE, tag="lds")
        a.lw(A0, S0, OFF_LEFT, pad=NODE_SIZE, tag="lds")
        a.jal("sum")
        a.add(S1, S1, V0)
        a.lw(A0, S0, OFF_RIGHT, pad=NODE_SIZE, tag="lds")
        a.jal("sum")
        a.add(V0, V0, S1)
        a.pop(RA, S0, S1)
        a.ret()

        program = a.assemble(f"treeadd[{variant}]")
        expected_sum = (1 << levels) - 1

        def check(interp: Interpreter) -> None:
            got = interp.memory.load(result_addr)
            assert got == expected_sum, f"treeadd: sum {got} != {expected_sum}"

        return BuiltProgram(
            program=program,
            expected={"sum": expected_sum, "nodes": expected_sum},
            check=check,
        )
