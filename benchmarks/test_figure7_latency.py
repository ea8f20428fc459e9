"""Figure 7 — tolerating longer latencies (health at 70 vs 280-cycle
memory, jump intervals 8 and 16).

Expected shapes (paper Section 4.4):
* a 4x memory latency increase slows the unoptimized program by ~2.5x
  (ours: the baseline total grows by well over 2x);
* serial prefetching (DBP) loses most of its effectiveness at the longer
  latency ("compresses but cannot flatten the memory dependence graph");
* jump-pointer prefetching remains effective as relative latency grows —
  its stall reduction declines far less than DBP's.
"""

from conftest import run_once, shipped

from repro.harness import format_table, run_spec


def test_figure7(benchmark):
    rows = run_once(benchmark, run_spec, shipped("figure7"))
    print()
    print(format_table(rows, "Figure 7 — health under 70/280-cycle memory"))

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
