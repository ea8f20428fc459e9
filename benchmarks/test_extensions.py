"""Extensions from the paper's "future directions" (Section 6).

X4 — generalization to "other classes of data structures with serialized
access idioms, like sparse matrices": the `spmv` workload (linked rows of
linked elements with x[col] gathers) run under the full scheme matrix.

The test runs the shipped spec file (``x4.toml``); the rows are in long
format, one per (axis point, scheme).
"""

from conftest import run_once, shipped

from repro.harness import format_table, run_spec


def test_spmv_generalization(benchmark):
    spec = shipped("x4")
    rows = run_once(benchmark, run_spec, spec)
    print()
    print(format_table(rows, spec.title))
    by = {r["scheme"]: r["normalized"] for r in rows}
    # jump-pointer prefetching transfers to the sparse-matrix idiom:
    # every JPP scheme wins, hardware (many traversals) the most, and all
    # beat plain DBP
    for scheme in ("software", "cooperative", "hardware"):
        assert by[scheme] < 0.85, scheme
        assert by[scheme] < by["dbp"], scheme
    assert by["hardware"] == min(by[s] for s in ("software", "cooperative", "hardware"))
