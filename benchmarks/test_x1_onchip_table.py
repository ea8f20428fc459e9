"""Section 3.3 ablation (X1) — on-chip jump-pointer table vs allocator
padding.

The paper: "with the exception of em3d, which has only 4000 nodes in its
backbone data structure, most benchmarks experience negligible speedups
from a 16K-entry on-chip jump-pointer cache" — the scalable padding
storage is the winning design.  At our scaled sizes, the structures fit
comfortably, so the on-chip table matches padding storage on the small
backbone (em3d) and a *small* table (capacity pressure) loses on the
larger ones.
"""

from dataclasses import replace

from conftest import run_once, shipped

from repro.harness import WorkloadSel, format_table, run_spec


def hardware_by_table(rows):
    """{benchmark: {table entries: hardware normalized time}}."""
    out = {}
    for row in rows:
        if row["scheme"] == "hardware":
            out.setdefault(row["benchmark"], {})[row["table"]] = row["normalized"]
    return out


def test_onchip_ablation(benchmark):
    spec = shipped("x1")
    undersized = replace(
        spec,
        workloads=(WorkloadSel("health"), WorkloadSel("treeadd")),
        axes=tuple(replace(a, values=(0, 64)) for a in spec.axes),
    )

    def run():
        return run_spec(spec), run_spec(undersized)

    big, small = run_once(benchmark, run)
    print()
    print(format_table(big, "On-chip table (16K entries) vs padding storage"))
    print()
    print(format_table(small, "Undersized on-chip table (64 entries)"))

    # a big enough table tracks padding storage closely (table 0 = padding)
    for name, hw in hardware_by_table(big).items():
        assert abs(hw[16384] - hw[0]) < 0.15, name

    # a severely undersized table thrashes and loses most of the benefit
    for name, hw in hardware_by_table(small).items():
        assert hw[64] >= hw[0] - 0.05, name
