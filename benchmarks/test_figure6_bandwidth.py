"""Figure 6 — bandwidth: bytes moved between the L1 and L2 data caches per
dynamic instruction of the original (baseline) program.

Expected shapes (paper Section 4.3):
* prefetching moves more bytes than the unoptimized program, but
  jump-pointer prefetching's overhead is modest;
* increasing software control over what is prefetched reduces waste:
  software <= cooperative <= hardware overheads on average (the hardware
  and DBP configurations prefetch rib structures greedily).
"""

from conftest import run_once, shipped

from repro.harness import MEMORY_BOUND, format_table, run_spec


def test_figure6(benchmark):
    rows = run_once(benchmark, run_spec, shipped("figure6"))
    print()
    print(format_table(rows, "Figure 6 — L1<->L2 bytes per baseline instruction"))

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
