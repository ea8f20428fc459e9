"""Figure 4 — comparing prefetching idioms (software and cooperative).

Reproduces the per-benchmark idiom comparison for the programs with more
than one applicable idiom: health (queue/full/chain/root), mst
(queue/root) and em3d (queue).

Expected shapes (paper Section 4.1):
* health: chain/full jumping clearly beat queue jumping (queue covers only
  the backbone, leaving the patient-record ribs unprefetched); root
  jumping trails them (the lists are long);
* mst: root jumping wins big; queue jumping on the remaining-vertex list
  decays with the splices and never covers the bucket chains;
* em3d: explicit queue jumping on the backbone works in software.
"""

from conftest import run_once, shipped

from repro.harness import format_table, run_spec


def test_figure4(benchmark):
    rows = run_once(benchmark, run_spec, shipped("figure4"))
    print()
    print(format_table(rows, "Figure 4 — idiom comparison (normalized time)"))

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
