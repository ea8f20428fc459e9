"""Olden ``em3d``: electromagnetic wave propagation on a bipartite graph.

Two linked lists of nodes (E-field and H-field).  Each node holds a
pointer to an array of ``degree`` *from-node* pointers into the other list
and an array of coefficients; one iteration updates every node's value
from its from-nodes' values.  The structure is *static* and traversed many
times — with the interesting twist that the expensive loads go through
*pointer arrays at every node*:

    "It is costly to implement jump queues and explicit jump-pointers for
    arrays in software; consequently, full jumping cannot be used.  An
    algorithm that performs only explicit queue jumping in software and
    leaves the array prefetches to the hardware is the most effective
    method here." (Section 4.1)

So the software variant implements queue jumping on the list backbone
only; the cooperative variant issues the same single ``JPF`` per node and
the dependence hardware chain-prefetches the from-array and the remote
node values it points to.

Layouts (bytes): node {value@0, next@4, from@8, coeff@12[, jp@16]} (20 ->
class 32); from-array and coeff-array ``4*degree`` (class 16 at degree 4).
Values are floats; the final checksum over all node values is verified
exactly against a Python mirror (identical operation order).
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

N_VALUE = 0
N_NEXT = 4
N_FROM = 8
N_COEFF = 12
N_JP = 16
NODE_CLASS = 32


def _graph(n_e: int, n_h: int, degree: int, seed: int = 0xE3D):
    """Deterministic topology/coefficients shared by builder and mirror."""
    idx_e = []  # for each E node, `degree` H-node indices
    idx_h = []
    coeff_e = []
    coeff_h = []
    for i in range(n_e):
        for j in range(degree):
            seed = lcg(seed)
            idx_e.append(seed % n_h)
            coeff_e.append(((seed >> 8) & 1023) / 4096.0)
    for i in range(n_h):
        for j in range(degree):
            seed = lcg(seed)
            idx_h.append(seed % n_e)
            coeff_h.append(((seed >> 8) & 1023) / 4096.0)
    val_e = [0.5 + (i % 31) * 0.03125 for i in range(n_e)]
    val_h = [0.25 + (i % 29) * 0.03125 for i in range(n_h)]
    return idx_e, idx_h, coeff_e, coeff_h, val_e, val_h


def mirror(n_e: int, n_h: int, degree: int, iterations: int) -> float:
    idx_e, idx_h, coeff_e, coeff_h, val_e, val_h = _graph(n_e, n_h, degree)
    for __ in range(iterations):
        for i in range(n_e):
            v = val_e[i]
            for j in range(degree):
                v = v - coeff_e[i * degree + j] * val_h[idx_e[i * degree + j]]
            val_e[i] = v
        for i in range(n_h):
            v = val_h[i]
            for j in range(degree):
                v = v - coeff_h[i * degree + j] * val_e[idx_h[i * degree + j]]
            val_h[i] = v
    total = 0.0
    for v in val_e:
        total = total + v
    for v in val_h:
        total = total + v
    return total


@register
class Em3d(Workload):
    name = "em3d"
    structure = "static bipartite lists with per-node pointer arrays, many traversals"
    idioms = ("queue",)
    variants = ("baseline", "sw:queue", "coop:queue")
    expectation = (
        "software queue jumping covers only the backbone; cooperative and "
        "hardware chain the array prefetches and win; many traversals make "
        "hardware JPP shine"
    )

    @classmethod
    def default_params(cls) -> dict:
        return {"n_e": 256, "n_h": 256, "degree": 4, "iterations": 10, "interval": 4}

    @classmethod
    def test_params(cls) -> dict:
        return {"n_e": 24, "n_h": 24, "degree": 2, "iterations": 2, "interval": 4}

    def build_variant(self, variant: str) -> BuiltProgram:
        impl, idiom = parse_variant(variant)
        n_e: int = self.params["n_e"]
        n_h: int = self.params["n_h"]
        degree: int = self.params["degree"]
        iterations: int = self.params["iterations"]
        interval: int = self.params["interval"]
        idx_e, idx_h, coeff_e, coeff_h, val_e, val_h = _graph(n_e, n_h, degree)

        a = Assembler()
        res_chk = a.word(0)
        e_head = a.word(0)
        h_head = a.word(0)
        e_tab = a.space(n_e)
        h_tab = a.space(n_h)
        s_idx_e = a.array(idx_e)
        s_idx_h = a.array(idx_h)
        s_co_e = a.array(coeff_e)
        s_co_h = a.array(coeff_h)
        s_val_e = a.array(val_e)
        s_val_h = a.array(val_h)
        queue = SoftwareJumpQueue(a, interval, "ejq") if impl != "baseline" else None
        # Nodes carry value/next/from/coeff plus a degree field (Olden's
        # node is larger still): 20 bytes -> 32-byte class, so padding for
        # jump-pointers exists in the baseline layout too.
        node_bytes = 20

        def build_side(tag: str, count: int, tab: int, head: int, vals: int) -> None:
            """Allocate `count` nodes, record them in `tab`, link them into
            a list at `head` (built back-to-front so list order = index
            order), and set initial values."""
            a.li(S0, count - 1)
            a.label(f"b{tag}_loop")
            a.blt(S0, ZERO, f"b{tag}_done")
            a.alloc(T1, ZERO, node_bytes)
            a.slli(T2, S0, 2)
            a.addi(T2, T2, vals)
            a.lw(T3, T2, 0)
            a.sw(T3, T1, N_VALUE)
            a.slli(T2, S0, 2)
            a.addi(T2, T2, tab)
            a.sw(T1, T2, 0)
            a.li(T4, head)
            a.lw(T5, T4, 0)
            a.sw(T5, T1, N_NEXT)
            a.sw(T1, T4, 0)
            a.addi(S0, S0, -1)
            a.j(f"b{tag}_loop")
            a.label(f"b{tag}_done")

        def wire_side(tag: str, count: int, tab: int, other_tab: int,
                      idx_base: int, co_base: int) -> None:
            """Allocate from/coeff arrays and fill them from the static
            index/coefficient tables."""
            a.li(S0, 0)
            a.label(f"w{tag}_loop")
            a.li(T0, count)
            a.bge(S0, T0, f"w{tag}_done")
            a.slli(T1, S0, 2)
            a.addi(T1, T1, tab)
            a.lw(S1, T1, 0)                  # node
            a.alloc(T2, ZERO, 4 * degree)    # from array
            a.alloc(T3, ZERO, 4 * degree)    # coeff array
            a.sw(T2, S1, N_FROM)
            a.sw(T3, S1, N_COEFF)
            a.li(T4, degree)
            a.mul(T5, S0, T4)
            a.slli(T5, T5, 2)                # byte offset of row
            for j in range(degree):
                a.addi(T6, T5, idx_base + 4 * j)
                a.lw(T6, T6, 0)              # remote index
                a.slli(T6, T6, 2)
                a.addi(T6, T6, other_tab)
                a.lw(T6, T6, 0)              # remote node address
                a.sw(T6, T2, 4 * j)
                a.addi(T7, T5, co_base + 4 * j)
                a.lw(T7, T7, 0)
                a.sw(T7, T3, 4 * j)
            a.addi(S0, S0, 1)
            a.j(f"w{tag}_loop")
            a.label(f"w{tag}_done")

        def compute_side(tag: str, head: int) -> None:
            """One relaxation sweep over a list."""
            a.li(T0, head)
            a.lw(S1, T0, 0, tag="lds")
            a.label(f"c{tag}_loop")
            a.beqz(S1, f"c{tag}_done")
            emit_jump_prefetch(a, impl, S1, N_JP, T5)
            if queue is not None:
                queue.update(S1, N_JP, T5, T6, T7)
            a.lw(S2, S1, N_VALUE, pad=NODE_CLASS, tag="lds")
            a.lw(S3, S1, N_FROM, pad=NODE_CLASS, tag="lds")
            a.lw(S4, S1, N_COEFF, pad=NODE_CLASS, tag="lds")
            for j in range(degree):
                a.lw(T1, S3, 4 * j, pad=16, tag="lds")   # from[j]
                a.lw(T2, T1, N_VALUE, pad=NODE_CLASS, tag="lds")  # remote value
                a.lw(T3, S4, 4 * j, pad=16, tag="lds")   # coeff[j]
                a.fmul(T2, T3, T2)
                a.fsub(S2, S2, T2)
            a.sw(S2, S1, N_VALUE)
            a.lw(S1, S1, N_NEXT, pad=NODE_CLASS, tag="lds")
            a.j(f"c{tag}_loop")
            a.label(f"c{tag}_done")

        a.label("main")
        build_side("e", n_e, e_tab, e_head, s_val_e)
        build_side("h", n_h, h_tab, h_head, s_val_h)
        wire_side("e", n_e, e_tab, h_tab, s_idx_e, s_co_e)
        wire_side("h", n_h, h_tab, e_tab, s_idx_h, s_co_h)

        a.li(S7, iterations)
        a.label("iter")
        a.beqz(S7, "sum")
        compute_side("e", e_head)
        compute_side("h", h_head)
        a.addi(S7, S7, -1)
        a.j("iter")

        # checksum: sum of all values, E list then H list
        a.label("sum")
        a.fli(S6, 0.0)
        for tag, head in (("se", e_head), ("sh", h_head)):
            a.li(T0, head)
            a.lw(S1, T0, 0, tag="lds")
            a.label(f"{tag}_loop")
            a.beqz(S1, f"{tag}_done")
            a.lw(T1, S1, N_VALUE, pad=NODE_CLASS, tag="lds")
            a.fadd(S6, S6, T1)
            a.lw(S1, S1, N_NEXT, pad=NODE_CLASS, tag="lds")
            a.j(f"{tag}_loop")
            a.label(f"{tag}_done")
        a.li(A0, res_chk)
        a.sw(S6, A0, 0)
        a.halt()

        program = a.assemble(f"em3d[{variant}]")
        expected = mirror(n_e, n_h, degree, iterations)

        def check(interp: Interpreter) -> None:
            got = interp.memory.load(res_chk)
            assert got == expected, f"em3d: checksum {got!r} != {expected!r}"

        return BuiltProgram(
            program=program,
            expected={"checksum": expected},
            check=check,
        )
