"""Table 1 — benchmark characterization.

Reproduces: dynamic instruction counts, the fraction of loads that are
LDS loads, L1 miss ratios, the share of misses due to LDS loads, the
average number of in-flight L1 misses (memory parallelism), the memory
fraction of execution time, and each program's structure/idiom call.

Expected shapes (paper Section 2.3 / Table 1):
* power, voronoi, tsp have very small memory components;
* the pointer-intensive programs (em3d, health, mst, treeadd, perimeter,
  bisort) are dominated by LDS misses;
* miss parallelism is low (serial pointer chasing) except where sibling
  accesses are independent (em3d's from-arrays, tsp's scan).
"""

from conftest import run_once, shipped

from repro.harness import format_table, run_spec


def test_table1(benchmark):
    rows = run_once(benchmark, run_spec, shipped("table1"))
    print()
    print(format_table(rows, "Table 1 — benchmark characterization"))

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
