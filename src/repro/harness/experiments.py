"""Paper-experiment constants and the Figure-5 headline summary.

Every paper experiment is a spec file under ``examples/specs/`` (see
DESIGN.md section 4 for the index); :func:`~repro.harness.spec.load_spec`
and :func:`~repro.harness.spec.run_spec` run them.  This module keeps
only what the spec files cannot state: the benchmark sets the paper
averages over, and the memory-bound averages of Figure 5.
"""

from __future__ import annotations

#: The paper's benchmark suite (the `spmv` extension workload is opt-in).
OLDEN = ("bh", "bisort", "em3d", "health", "mst", "perimeter", "power",
         "treeadd", "tsp", "voronoi")

#: Benchmarks with an appreciable memory-latency component — the set over
#: which the paper computes its headline averages ("If we disregard bh,
#: bisort, power, tsp and voronoi...", Section 4.2).
MEMORY_BOUND = ("em3d", "health", "mst", "perimeter", "treeadd")


def figure5_summary(rows: list[dict[str, object]]) -> list[dict[str, object]]:
    """The paper's headline averages over the memory-bound benchmarks."""
    out = []
    for scheme in ("software", "cooperative", "hardware", "dbp"):
        # Degenerate tiny runs can round "normalized" to 0.0 (and error
        # rows carry no metrics at all); both are skipped, not divided by.
        picked = [
            r for r in rows
            if r["scheme"] == scheme and r["benchmark"] in MEMORY_BOUND
            and r.get("normalized")
        ]
        if not picked:
            continue
        speedup = sum(1 / r["normalized"] for r in picked) / len(picked)
        memcut = sum(r["mem_reduction%"] for r in picked) / len(picked)
        out.append({
            "scheme": scheme,
            "avg speedup%": round(100 * (speedup - 1), 1),
            "avg mem stall cut%": round(memcut, 1),
        })
    return out
