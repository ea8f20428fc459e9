"""Extensions from the paper's "future directions" (Section 6).

X3 — adaptive jump intervals: "a better mechanism adapting the interval
on a case by case basis".  We compare fixed-interval hardware JPP against
the per-PC adaptive table at 70- and 280-cycle memory: at the long
latency a fixed interval of 8 is too short, and the adaptive table should
recover (most of) the gap to a hand-tuned longer interval.

X4 — generalization to "other classes of data structures with serialized
access idioms, like sparse matrices": the `spmv` workload (linked rows of
linked elements with x[col] gathers) run under the full scheme matrix.

Both run their shipped spec files (``x3.toml``, ``x4.toml``); the rows
are in long format, one per (axis point, scheme).
"""

from conftest import run_once, shipped

from repro.harness import format_table, run_spec


def test_adaptive_interval(benchmark):
    spec = shipped("x3")
    rows = run_once(benchmark, run_spec, spec)
    print()
    print(format_table(rows, spec.title))
    hardware = {
        (r["latency"], r["adaptive"]): r["normalized"]
        for r in rows if r["scheme"] == "hardware"
    }
    for latency in (70, 280):
        # the adaptive table must be competitive with the fixed default...
        assert hardware[latency, True] <= hardware[latency, False] + 0.05, (
            latency, hardware)
    # ...and it must still beat the baseline at the long latency
    assert hardware[280, True] < 1.0


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
