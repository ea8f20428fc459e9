"""Figure 5 — comparing implementations (software / cooperative / hardware
JPP and dependence-based prefetching) on all ten Olden programs.

Expected shapes (paper Section 4.2):
* the memory-bound programs (em3d, health, mst, perimeter, treeadd) see
  large gains from JPP, and JPP beats plain DBP on the serialized ones;
* power and voronoi: software prefetching's compute overhead produces a
  net slowdown; hardware JPP at worst does nothing;
* tsp (volatile list): software JPP is pure overhead;
* hardware JPP needs repeat traversals: it trails software/cooperative on
  the single-pass programs (perimeter, mst — where its jump-pointers are
  installed too late to be used) and does well on health/em3d/treeadd;
* averaged over the memory-bound set, every JPP implementation cuts a
  large share of memory stall time, more than DBP alone.
"""

from conftest import run_once, shipped

from repro.harness import figure5_summary, format_table, run_spec


def test_figure5(benchmark):
    rows = run_once(benchmark, run_spec, shipped("figure5"))
    print()
    print(format_table(rows, "Figure 5 — normalized execution time"))
    summary = figure5_summary(rows)
    print()
    print(format_table(summary, "Averages over the memory-bound set"))

    def get(bench, scheme, field="normalized"):
        return next(
            r[field] for r in rows
            if r["benchmark"] == bench and r["scheme"] == scheme
        )

    # Memory-bound set: software and cooperative JPP clearly win
    for name in ("em3d", "health", "mst", "perimeter", "treeadd"):
        assert get(name, "software") < 0.97, name
    # JPP (best implementation) beats DBP on the serialized programs
    for name in ("health", "treeadd", "perimeter", "mst"):
        best_jpp = min(get(name, s) for s in ("software", "cooperative", "hardware"))
        assert best_jpp <= get(name, "dbp") + 0.02, name

    # Compute-bound programs: software prefetching does not help (and can
    # hurt); hardware JPP never degrades them
    for name in ("power", "voronoi", "tsp"):
        assert get(name, "software") >= 0.99, name
        assert get(name, "hardware") <= 1.02, name

    # Hardware JPP needs repeat traversals: single-pass perimeter gains
    # less from it than from creation-time software jump-pointers
    assert get("perimeter", "hardware") > get("perimeter", "software")

    # Headline averages: each implementation cuts a sizable share of the
    # memory-bound programs' stall time, DBP the least of the four
    by_scheme = {s["scheme"]: s for s in summary}
    for scheme in ("software", "cooperative", "hardware"):
        assert by_scheme[scheme]["avg mem stall cut%"] > 20
        assert by_scheme[scheme]["avg speedup%"] > 10
    assert by_scheme["dbp"]["avg mem stall cut%"] <= min(
        by_scheme[s]["avg mem stall cut%"] for s in ("software", "cooperative")
    )
