"""The paper's result shapes: each of its tables and figures regenerated
from its shipped spec (``examples/specs/``, on the ``bench`` machine at
full size) and checked against the orderings the paper reports.

Slow-marked: run with ``pytest -m slow`` (add ``-s`` to see the tables).
Every spec runs through one module-wide executor and result cache, so
the figures share the cells they have in common and each cell is
simulated once.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.harness import (
    MEMORY_BOUND,
    ResultCache,
    SweepExecutor,
    WorkloadSel,
    figure5_summary,
    format_table,
    load_spec,
    run_spec,
)

from tests.conftest import SPEC_DIR

pytestmark = pytest.mark.slow


def shipped(name: str):
    """The shipped ``examples/specs/<name>.toml`` experiment, as is."""
    return load_spec(SPEC_DIR / f"{name}.toml")


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """``run(spec, title)``: the spec's rows, printed as a table, from
    one executor (a worker per CPU) over one cache for the module."""
    executor = SweepExecutor(
        jobs=0, cache=ResultCache(tmp_path_factory.mktemp("paper-shapes"))
    )

    def run_and_print(spec, title: str) -> list[dict]:
        rows = run_spec(spec, executor)
        print()
        print(format_table(rows, title))
        return rows

    return run_and_print


def test_table1(run):
    """Table 1 — benchmark characterization (Section 2.3).

    power, voronoi and tsp have very small memory components; the
    pointer-intensive programs are dominated by LDS misses."""
    rows = run(shipped("table1"), "Table 1 — benchmark characterization")

    by_name = {r["benchmark"]: r for r in rows}
    assert len(rows) == 10

    # compute-bound programs have small memory fractions
    for name in ("power", "voronoi", "tsp"):
        assert by_name[name]["mem frac%"] < 25, name
    # memory-bound programs have large ones
    for name in ("em3d", "health", "mst", "treeadd", "perimeter"):
        assert by_name[name]["mem frac%"] > 50, name
    # LDS loads dominate the misses of the pointer-intensive programs
    for name in ("em3d", "health", "mst", "treeadd", "perimeter", "bisort"):
        assert by_name[name]["%misses lds"] > 90, name


def test_figure4(run):
    """Figure 4 — prefetching idioms, software and cooperative
    (Section 4.1).

    health: chain/full jumping beat queue jumping (queue covers only the
    backbone) and root jumping (the lists are long); mst: root jumping
    wins big; em3d: explicit queue jumping works in software."""
    rows = run(shipped("figure4"),
               "Figure 4 — idiom comparison (normalized time)")

    def norm(bench, config):
        return next(
            r["normalized"] for r in rows
            if r["benchmark"] == bench and r["config"] == config
        )

    # health: chain and full beat queue; paper picks chain
    assert norm("health", "sw:chain") < norm("health", "sw:queue")
    assert norm("health", "sw:full") < norm("health", "sw:queue")
    assert norm("health", "sw:chain") < 1.0
    # health: the lists are too long for root jumping to win
    assert norm("health", "sw:chain") < norm("health", "sw:root")

    # mst: root jumping is the clear winner over queue jumping
    assert norm("mst", "sw:root") < norm("mst", "sw:queue")
    assert norm("mst", "sw:root") < 0.9
    assert norm("mst", "coop:root") < norm("mst", "coop:queue")

    # em3d: software queue jumping helps
    assert norm("em3d", "sw:queue") < 1.0


def test_figure5(run):
    """Figure 5 — software / cooperative / hardware JPP and DBP on all
    ten Olden programs (Section 4.2).

    JPP wins on the memory-bound set and beats plain DBP on the
    serialized programs; software JPP slows power and voronoi; hardware
    JPP needs repeat traversals, so it trails on single-pass perimeter."""
    rows = run(shipped("figure5"), "Figure 5 — normalized execution time")
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


def test_figure6(run):
    """Figure 6 — L1<->L2 bytes per baseline instruction (Section 4.3).

    Prefetching costs bandwidth, JPP's modestly, and more software
    control over what is prefetched wastes less."""
    rows = run(shipped("figure6"),
               "Figure 6 — L1<->L2 bytes per baseline instruction")

    def get(bench, scheme):
        return next(
            r["bytes/inst"] for r in rows
            if r["benchmark"] == bench and r["scheme"] == scheme
        )

    def avg_overhead(scheme):
        vals = []
        for name in MEMORY_BOUND:
            base = get(name, "base")
            if base:
                vals.append(get(name, scheme) / base - 1.0)
        return sum(vals) / len(vals)

    sw, coop, hw, dbp = (
        avg_overhead(s) for s in ("software", "cooperative", "hardware", "dbp")
    )
    print(
        f"\naverage bandwidth overhead vs base: software {sw:+.1%}, "
        f"cooperative {coop:+.1%}, hardware {hw:+.1%}, dbp {dbp:+.1%}"
    )
    # prefetching costs bandwidth, within reason
    for name, overhead in (("software", sw), ("cooperative", coop), ("hardware", hw)):
        assert overhead > -0.2, name
        assert overhead < 1.0, name
    # more software control => less waste (paper: 3% / 6% / 35%)
    assert sw <= coop + 0.10
    assert sw <= hw + 0.10


def test_figure7(run):
    """Figure 7 — health at 70 vs 280-cycle memory, jump intervals 8 and
    16 (Section 4.4).

    4x latency slows the baseline ~2.5x; DBP loses most of its
    effectiveness at the longer latency, JPP keeps most of its own."""
    rows = run(shipped("figure7"),
               "Figure 7 — health under 70/280-cycle memory")

    def get(latency, interval, scheme, field="normalized"):
        return next(
            r[field] for r in rows
            if r["latency"] == latency and r["interval"] == interval
            and r["scheme"] == scheme
        )

    # 4x latency slows the unoptimized program dramatically
    assert get(280, 8, "base", "total") > 2.0 * get(70, 8, "base", "total")

    # DBP's stall reduction collapses at long latency
    dbp_cut_70 = get(70, 8, "dbp", "mem_reduction%")
    dbp_cut_280 = get(280, 8, "dbp", "mem_reduction%")
    assert dbp_cut_280 < dbp_cut_70

    # JPP keeps a large share of its benefit
    sw_cut_70 = get(70, 8, "software", "mem_reduction%")
    sw_cut_280 = get(280, 8, "software", "mem_reduction%")
    assert sw_cut_280 > dbp_cut_280 + 10
    assert sw_cut_280 > 0.4 * sw_cut_70

    # at 280 cycles the longer interval helps software JPP
    assert get(280, 16, "software") <= get(280, 8, "software") + 0.02


def hardware_by_table(rows):
    """{benchmark: {table entries: hardware normalized time}}."""
    out = {}
    for row in rows:
        if row["scheme"] == "hardware":
            out.setdefault(row["benchmark"], {})[row["table"]] = row["normalized"]
    return out


def test_x1_onchip_table(run):
    """X1 — on-chip jump-pointer table vs allocator padding (Section 3.3).

    A big enough table (16K entries) tracks padding storage; a small one
    (64 entries) thrashes on the larger backbones."""
    spec = shipped("x1")
    undersized = replace(
        spec,
        workloads=(WorkloadSel("health"), WorkloadSel("treeadd")),
        axes=tuple(replace(a, values=(0, 64)) for a in spec.axes),
    )
    big = run(spec, "On-chip table (16K entries) vs padding storage")
    small = run(undersized, "Undersized on-chip table (64 entries)")

    # a big enough table tracks padding storage closely (table 0 = padding)
    for name, hw in hardware_by_table(big).items():
        assert abs(hw[16384] - hw[0]) < 0.15, name

    # a severely undersized table thrashes and loses most of the benefit
    for name, hw in hardware_by_table(small).items():
        assert hw[64] >= hw[0] - 0.05, name


def test_x2_overhead(run):
    """X2 — jump-pointer creation slows the software implementations a
    priori (paper: ~12% for health's chain jumping)."""
    rows = run(shipped("x2"), "A-priori jump-pointer creation overhead")
    for row in rows:
        assert 0 < row["creation overhead%"] < 60, row["benchmark"]


def test_x2_passes(run):
    """X2 — hardware JPP spends the first traversal installing
    jump-pointers, so its benefit grows with the number of passes."""
    rows = run(shipped("x2-passes"),
               "treeadd: hardware vs cooperative/DBP by pass count")
    by_passes = {}
    for row in rows:
        by_passes.setdefault(row["passes"], {})[row["scheme"]] = row["normalized"]
    # single pass: hardware's jump-pointers add nothing over its DBP half
    assert by_passes[1]["hardware"] >= by_passes[1]["dbp"] - 0.03
    # with more passes the jump-pointers kick in: hardware pulls ahead of
    # DBP and improves in absolute terms
    assert by_passes[8]["hardware"] < by_passes[8]["dbp"] - 0.01
    assert by_passes[8]["hardware"] < by_passes[1]["hardware"] - 0.05
    # cooperative optimizes the first pass too: ahead of hardware at 1 pass
    assert by_passes[1]["cooperative"] < by_passes[1]["hardware"]


def test_x4_spmv(run):
    """X4 — JPP generalizes to sparse matrices (Section 6): the `spmv`
    workload, linked rows of linked elements with x[col] gathers."""
    spec = shipped("x4")
    rows = run(spec, spec.title)
    by = {r["scheme"]: r["normalized"] for r in rows}
    # jump-pointer prefetching transfers to the sparse-matrix idiom:
    # every JPP scheme wins, hardware (many traversals) the most, and all
    # beat plain DBP
    for scheme in ("software", "cooperative", "hardware"):
        assert by[scheme] < 0.85, scheme
        assert by[scheme] < by["dbp"], scheme
    assert by["hardware"] == min(by[s] for s in ("software", "cooperative", "hardware"))
