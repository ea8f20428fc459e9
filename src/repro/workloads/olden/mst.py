"""Olden ``mst``: minimum spanning tree over hash-table adjacency.

Each vertex owns a hash table mapping neighbour vertex -> edge weight;
buckets are short linked chains ("mst's short hash table bucket chains are
ideal for a root jumping implementation", Section 2.2/4.1).  The kernel is
the classic O(N^2) Prim: each step scans the linked list of remaining
vertices, performs a hash lookup of the distance to the newly added vertex
(walking one bucket chain), tracks the minimum, and splices the chosen
vertex out.  The program makes a *single pass* in the paper's sense — no
repeated traversal of a stable structure — which is why hardware JPP is
useless for it (it needs one traversal to install jump-pointers).

Idioms:

* ``root`` (the paper's choice) — while vertex *v*'s chain is walked, the
  *next* remaining vertex's bucket for the same key is prefetched through
  a pointer to its root; the chain itself is chain-prefetched (software
  pays artifact loads; cooperative's single ``JPF`` lets hardware do it).
* ``queue`` (for the Figure-4 idiom comparison) — jump-pointers on the
  remaining-vertex list only; decays as the list is spliced and never
  covers the chains, so it should clearly lose to root jumping.

Layouts (bytes): vertex record {table@0, mindist@4, index@8} (12 -> class
16); bucket array B*4 (class 64 for B=16); chain entry {key@0, weight@4,
next@8} (12 -> class 16); remaining-list node {vptr@0, next@4[, jp@8]}.
Functional result (total MST weight) is verified against a Python mirror;
the test-suite cross-checks the mirror against networkx.
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
    T8,
    ZERO,
)
from ..base import BuiltProgram, Workload, parse_variant
from ..registry import register

MASK32 = 0xFFFFFFFF
HASH_MUL = 2654435761
WEIGHT_MUL = 16807
INF = 1 << 30

V_TABLE = 0
V_MINDIST = 4
V_INDEX = 8
E_KEY = 0
E_WEIGHT = 4
E_NEXT = 8
R_VPTR = 0
R_NEXT = 4
R_JP = 8


def edge_weight(u: int, v: int) -> int:
    """Deterministic symmetric weight in [1, 256]."""
    m, mx = (u, v) if u < v else (v, u)
    x = (m * 1000003 + mx) & MASK32
    x = (x * WEIGHT_MUL) & MASK32
    return ((x >> 8) & 255) + 1


def bucket_of(u: int, buckets: int) -> int:
    return ((u * HASH_MUL) >> 8) & (buckets - 1)


def mirror(n: int, buckets: int) -> int:
    """Python mirror: same Prim scan order, same tie-breaking."""
    mindist = [INF] * n
    remaining = list(range(1, n))
    new = 0
    total = 0
    for __ in range(n - 1):
        best_d = INF
        best_pos = -1
        for pos, v in enumerate(remaining):
            d = edge_weight(v, new)
            if d < mindist[v]:
                mindist[v] = d
            if mindist[v] < best_d:
                best_d = mindist[v]
                best_pos = pos
        new = remaining.pop(best_pos)
        total += best_d
    return total


@register
class MST(Workload):
    name = "mst"
    structure = "hash-table adjacency; short bucket chains; single pass"
    idioms = ("root", "queue")
    variants = ("baseline", "sw:root", "sw:queue", "coop:root", "coop:queue")
    expectation = (
        "root jumping wins (short chains); hardware JPP is useless because "
        "the program makes a single pass"
    )

    @classmethod
    def default_params(cls) -> dict:
        return {"n": 64, "buckets": 16, "interval": 8}

    @classmethod
    def test_params(cls) -> dict:
        return {"n": 12, "buckets": 4, "interval": 4}

    def build_variant(self, variant: str) -> BuiltProgram:
        impl, idiom = parse_variant(variant)
        n: int = self.params["n"]
        buckets: int = self.params["buckets"]
        interval: int = self.params["interval"]

        a = Assembler()
        res_total = a.word(0)
        rem_head = a.word(0)
        vtable = a.space(n)
        queue = (
            SoftwareJumpQueue(a, interval, "mjq")
            if impl != "baseline" and idiom == "queue"
            else None
        )
        rnode_bytes = 12 if queue is not None else 8

        # ---------------- build: vertices and hash tables ----------------
        a.label("main")
        a.li(S0, 0)  # v
        a.label("b_vert")
        a.li(T0, n)
        a.bge(S0, T0, "b_edges")
        a.alloc(T1, ZERO, 12)            # vertex record
        a.alloc(T2, ZERO, 4 * buckets)   # bucket array (fresh heap = nulls)
        a.sw(T2, T1, V_TABLE)
        a.li(T3, INF)
        a.sw(T3, T1, V_MINDIST)
        a.sw(S0, T1, V_INDEX)
        a.slli(T4, S0, 2)
        a.addi(T4, T4, vtable)
        a.sw(T1, T4, 0)                  # vtable[v] = record
        a.addi(S0, S0, 1)
        a.j("b_vert")

        # edges: for v, for u != v: insert (u, w(u,v)) into v's table
        a.label("b_edges")
        a.li(S0, 0)  # v
        a.label("be_v")
        a.li(T0, n)
        a.bge(S0, T0, "b_rem")
        a.slli(T1, S0, 2)
        a.addi(T1, T1, vtable)
        a.lw(S2, T1, 0)                  # v record
        a.lw(S3, S2, V_TABLE)            # v table
        a.li(S1, 0)  # u
        a.label("be_u")
        a.li(T0, n)
        a.bge(S1, T0, "be_vnext")
        a.beq(S1, S0, "be_unext")
        # weight(u, v): m = min, mx = max
        a.blt(S0, S1, "be_minv")
        a.mov(T1, S1)                    # m = u
        a.mov(T2, S0)                    # mx = v
        a.j("be_wcalc")
        a.label("be_minv")
        a.mov(T1, S0)
        a.mov(T2, S1)
        a.label("be_wcalc")
        a.li(T3, 1000003)
        a.mul(T1, T1, T3)
        a.add(T1, T1, T2)
        a.andi(T1, T1, MASK32)
        a.li(T3, WEIGHT_MUL)
        a.mul(T1, T1, T3)
        a.andi(T1, T1, MASK32)
        a.srli(T1, T1, 8)
        a.andi(T1, T1, 255)
        a.addi(T1, T1, 1)                # weight
        # bucket(u)
        a.li(T3, HASH_MUL)
        a.mul(T2, S1, T3)
        a.srli(T2, T2, 8)
        a.andi(T2, T2, buckets - 1)
        a.slli(T2, T2, 2)
        a.add(T2, T2, S3)                # &table[h]
        a.alloc(T4, ZERO, 12)            # chain entry
        a.sw(S1, T4, E_KEY)
        a.sw(T1, T4, E_WEIGHT)
        a.lw(T5, T2, 0)
        a.sw(T5, T4, E_NEXT)
        a.sw(T4, T2, 0)
        a.label("be_unext")
        a.addi(S1, S1, 1)
        a.j("be_u")
        a.label("be_vnext")
        a.addi(S0, S0, 1)
        a.j("be_v")

        # remaining list: vertices 1..n-1 in ascending order (prepend from
        # n-1 down to 1)
        a.label("b_rem")
        a.li(S0, n - 1)
        a.label("br_loop")
        a.blez(S0, "prim")
        a.alloc(T1, ZERO, rnode_bytes)
        a.slli(T2, S0, 2)
        a.addi(T2, T2, vtable)
        a.lw(T3, T2, 0)
        a.sw(T3, T1, R_VPTR)
        a.li(T4, rem_head)
        a.lw(T5, T4, 0)
        a.sw(T5, T1, R_NEXT)
        a.sw(T1, T4, 0)
        a.addi(S0, S0, -1)
        a.j("br_loop")

        # ---------------- Prim ----------------
        a.label("prim")
        a.li(S3, 0)       # total weight
        a.li(S4, 0)       # new vertex index
        a.li(S5, n - 1)   # steps
        a.label("step")
        a.beqz(S5, "end")
        # hoff = 4 * bucket(new)
        a.li(T0, HASH_MUL)
        a.mul(S6, S4, T0)
        a.srli(S6, S6, 8)
        a.andi(S6, S6, buckets - 1)
        a.slli(S6, S6, 2)
        a.li(S7, INF)     # best distance
        a.li(T8, 0)       # best prev-slot
        a.li(S0, rem_head)  # prev slot address
        a.lw(S1, S0, 0, tag="lds")  # node = head
        a.label("scan")
        a.beqz(S1, "pick")

        if impl != "baseline":
            if idiom == "root":
                skip_rj = a.newlabel("mrj")
                a.lw(T5, S1, R_NEXT, pad=16, tag="lds")   # next list node
                a.beqz(T5, skip_rj)
                a.lw(T5, T5, R_VPTR, pad=16, tag="lds")   # artifact
                a.lw(T5, T5, V_TABLE, pad=16, tag="lds")  # artifact
                a.add(T5, T5, S6)                          # &next_tbl[h]
                if impl == "coop":
                    a.jpf(T5, 0)
                else:
                    a.pf(T5, 0)                            # bucket slot line
                    a.lw(T5, T5, 0, tag="lds")             # artifact: root
                    a.pf(T5, 0)                            # first chain node
                a.label(skip_rj)
            else:  # queue jumping on the remaining list
                emit_jump_prefetch(a, impl, S1, R_JP, T5)
                queue.update(S1, R_JP, T5, T6, T7)

        a.lw(S2, S1, R_VPTR, pad=16, tag="lds")   # vertex record
        a.lw(T0, S2, V_TABLE, pad=16, tag="lds")  # bucket array
        a.add(T0, T0, S6)
        a.lw(T1, T0, 0, tag="lds")                # chain head
        a.label("chain")
        a.lw(T2, T1, E_KEY, pad=16, tag="lds")
        a.beq(T2, S4, "found")
        a.lw(T1, T1, E_NEXT, pad=16, tag="lds")
        a.bnez(T1, "chain")
        a.li(T3, INF)                             # not found (cannot happen
        a.j("relax")                              # in a dense graph)
        a.label("found")
        a.lw(T3, T1, E_WEIGHT, pad=16, tag="lds")
        a.label("relax")
        a.lw(T4, S2, V_MINDIST, pad=16, tag="lds")
        a.bge(T3, T4, "no_update")
        a.sw(T3, S2, V_MINDIST)
        a.mov(T4, T3)
        a.label("no_update")
        a.bge(T4, S7, "no_best")
        a.mov(S7, T4)
        a.mov(T8, S0)
        a.label("no_best")
        a.addi(S0, S1, R_NEXT)
        a.lw(S1, S1, R_NEXT, pad=16, tag="lds")
        a.j("scan")

        a.label("pick")
        a.lw(T0, T8, 0, tag="lds")        # best node
        a.lw(T1, T0, R_VPTR, pad=16, tag="lds")
        a.lw(S4, T1, V_INDEX, pad=16, tag="lds")
        a.add(S3, S3, S7)
        a.lw(T2, T0, R_NEXT, pad=16, tag="lds")
        a.sw(T2, T8, 0)                   # splice out
        a.addi(S5, S5, -1)
        a.j("step")

        a.label("end")
        a.li(A0, res_total)
        a.sw(S3, A0, 0)
        a.halt()

        program = a.assemble(f"mst[{variant}]")
        expected = mirror(n, buckets)

        def check(interp: Interpreter) -> None:
            got = interp.memory.load(res_total)
            assert got == expected, f"mst: weight {got} != {expected}"

        return BuiltProgram(
            program=program,
            expected={"mst_weight": expected, "n": n},
            check=check,
        )
