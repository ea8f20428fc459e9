"""Extension workload: sparse matrix-vector multiplication over linked rows.

Not an Olden program — this implements the paper's closing future-work
suggestion:

    "jump-pointer prefetching may be generalized to other classes of data
    structures with serialized access idioms, like sparse matrices and
    database trees." (Section 6)

The matrix is stored the way sparse codes of the era stored dynamic
matrices: a linked list of row headers, each pointing at a linked list of
element nodes ``{col@0, value@4, next@8}`` (12 bytes -> the 16-byte class,
so hardware jump-pointer padding exists).  ``y = A x`` is computed
``iterations`` times; the element-list walk is a serial pointer chase and
the ``x[col]`` reads are data-dependent gathers — precisely the
"serialized access idiom" the paper points at.

Queue jumping applies verbatim: elements are created in traversal order,
so jump-pointers are installed at creation and every sweep prefetches
through them; the gathers ride along via chained prefetching in the
cooperative/hardware schemes.
"""

from __future__ import annotations

from ..core.jump_queue import SoftwareJumpQueue, emit_jump_prefetch
from ..isa.assembler import Assembler
from ..isa.interpreter import Interpreter
from ..isa.registers import (
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
    ZERO,
)
from .base import BuiltProgram, Workload, parse_variant
from .olden.common import lcg
from .registry import register

E_COL = 0
E_VAL = 4
E_NEXT = 8
E_JP = 12          # software jump-pointer (hardware uses the same slot)
ELEM_CLASS = 16
R_ELEMS = 0
R_NEXT = 4
SEED0 = 0x5EA15E


def _matrix(rows: int, cols: int, nnz_per_row: int):
    """Deterministic sparse structure shared by builder and mirror."""
    seed = SEED0
    structure = []
    for __ in range(rows):
        row = []
        for __e in range(nnz_per_row):
            seed = lcg(seed)
            col = seed % cols
            val = 0.25 + ((seed >> 8) & 255) / 512.0
            row.append((col, val))
        structure.append(row)
    x = [0.5 + (i % 13) * 0.125 for i in range(cols)]
    return structure, x


def mirror(rows: int, cols: int, nnz_per_row: int, iterations: int) -> float:
    structure, x = _matrix(rows, cols, nnz_per_row)
    total = 0.0
    for __ in range(iterations):
        total = 0.0
        for row in structure:
            acc = 0.0
            for col, val in row:
                acc = acc + val * x[col]
            total = total + acc
    return total


@register
class SpMV(Workload):
    name = "spmv"
    structure = (
        "linked rows of linked elements + gathered vector reads "
        "(extension: the paper's sparse-matrix generalization)"
    )
    idioms = ("queue",)
    variants = ("baseline", "sw:queue", "coop:queue")
    expectation = (
        "queue jumping on the element lists hides the chase; chained "
        "prefetching extends to the x[col] gathers"
    )

    @classmethod
    def default_params(cls) -> dict:
        return {"rows": 96, "cols": 512, "nnz_per_row": 8, "iterations": 8,
                "interval": 8}

    @classmethod
    def test_params(cls) -> dict:
        return {"rows": 8, "cols": 32, "nnz_per_row": 3, "iterations": 2,
                "interval": 4}

    def build_variant(self, variant: str) -> BuiltProgram:
        impl, idiom = parse_variant(variant)
        rows: int = self.params["rows"]
        cols: int = self.params["cols"]
        nnz: int = self.params["nnz_per_row"]
        iterations: int = self.params["iterations"]
        interval: int = self.params["interval"]
        structure, x = _matrix(rows, cols, nnz)

        a = Assembler()
        res = a.word(0)
        row_head = a.word(0)
        s_cols = a.array([c for row in structure for c, __ in row])
        s_vals = a.array([v for row in structure for __, v in row])
        s_x = a.array(x)
        queue = SoftwareJumpQueue(a, interval, "mjq") if impl != "baseline" else None

        # ---- build: rows front-to-back, elements appended at the tail so
        # creation order equals traversal order ------------------------------
        a.label("main")
        a.li(S0, rows - 1)        # row index, descending (prepend rows)
        a.label("b_row")
        a.blt(S0, ZERO, "compute")
        a.alloc(S1, ZERO, 8)      # row header {elems, next}
        a.li(T0, row_head)
        a.lw(T1, T0, 0)
        a.sw(T1, S1, R_NEXT)
        a.sw(S1, T0, 0)
        # elements of this row, tail-appended: walk the static tables in
        # reverse so the *list* ends up in table order
        a.li(S2, nnz - 1)
        a.label("b_elem")
        a.blt(S2, ZERO, "b_row_next")
        a.alloc(T0, ZERO, 12)
        a.li(T1, nnz)
        a.mul(T2, S0, T1)
        a.add(T2, T2, S2)
        a.slli(T2, T2, 2)
        a.addi(T3, T2, s_cols)
        a.lw(T3, T3, 0)
        a.sw(T3, T0, E_COL)
        a.addi(T3, T2, s_vals)
        a.lw(T3, T3, 0)
        a.sw(T3, T0, E_VAL)
        a.lw(T4, S1, R_ELEMS)
        a.sw(T4, T0, E_NEXT)      # prepend within the row
        a.sw(T0, S1, R_ELEMS)
        if queue is not None:
            # rows are prepended and elements prepended: creation order is
            # the exact reverse of traversal order -> install backward
            queue.update(T0, E_JP, T2, T3, T4, reverse=True)
        a.addi(S2, S2, -1)
        a.j("b_elem")
        a.label("b_row_next")
        a.addi(S0, S0, -1)
        a.j("b_row")

        # ---- y = A x, `iterations` times -----------------------------------
        a.label("compute")
        a.li(S7, iterations)
        a.label("iter")
        a.beqz(S7, "end")
        a.fli(S6, 0.0)            # total
        a.li(T0, row_head)
        a.lw(S1, T0, 0, tag="lds")
        a.label("c_row")
        a.beqz(S1, "iter_done")
        a.fli(S5, 0.0)            # row accumulator
        a.lw(S2, S1, R_ELEMS, tag="lds")
        a.label("c_elem")
        a.beqz(S2, "c_row_done")
        emit_jump_prefetch(a, impl, S2, E_JP, T5)
        a.lw(T0, S2, E_COL, pad=ELEM_CLASS, tag="lds")
        a.slli(T0, T0, 2)
        a.addi(T0, T0, s_x)
        a.lw(T1, T0, 0, tag="lds")               # x[col] gather
        a.lw(T2, S2, E_VAL, pad=ELEM_CLASS, tag="lds")
        a.fmul(T1, T2, T1)
        a.fadd(S5, S5, T1)
        a.lw(S2, S2, E_NEXT, pad=ELEM_CLASS, tag="lds")
        a.j("c_elem")
        a.label("c_row_done")
        a.fadd(S6, S6, S5)
        a.lw(S1, S1, R_NEXT, tag="lds")
        a.j("c_row")
        a.label("iter_done")
        a.addi(S7, S7, -1)
        a.j("iter")

        a.label("end")
        a.li(A0, res)
        a.sw(S6, A0, 0)
        a.halt()

        program = a.assemble(f"spmv[{variant}]")
        expected = mirror(rows, cols, nnz, iterations)

        def check(interp: Interpreter) -> None:
            got = interp.memory.load(res)
            assert got == expected, f"spmv: {got!r} != {expected!r}"

        return BuiltProgram(
            program=program,
            expected={"y_total": expected},
            check=check,
        )
