"""Performance baseline for the sweep executor / result cache / hot-loop PR.

Run directly (also wired into CI)::

    python benchmarks/perf_baseline.py                  # emit BENCH_PR2.json
    python benchmarks/perf_baseline.py --assert-speedup # enforce the targets
    python benchmarks/perf_baseline.py --quick          # test-size smoke run

Measures three things and writes them to ``BENCH_PR2.json``:

1. **Single-run speed** — wall-clock and simulated instructions/second for
   three representative simulations, against the frozen seed-revision
   timings in ``SEED_REFERENCE``.  Simulated cycle counts must be
   bit-identical to the seed's; the wall-clock speedup target is >= 1.3x
   (only asserted with ``--assert-speedup``, since absolute times are
   machine-dependent — the reference box is the one that produced the
   committed artifact).
2. **Sweep scaling** — one figure-5 style sweep executed serially and
   with ``--jobs 4``; rows must be identical, and the parallel wall-clock
   should approach 1/min(4, cells) of serial on an idle 4-core machine.
3. **Cache effectiveness** — the same sweep cold (empty cache) and warm;
   the warm run must serve every simulation from disk (zero misses) and
   reproduce the rows exactly.

All parity checks (cycles vs seed, serial vs parallel, cold vs warm) are
asserted unconditionally; only the speed *targets* hide behind
``--assert-speedup``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

sys.path.insert(0, "src")

from repro import bench_config, get_workload, simulate, small_config  # noqa: E402
from repro.harness import ResultCache, detect_cpus, figure5, small_params  # noqa: E402
from repro.isa.engines import default_sim_engine  # noqa: E402

#: Frozen measurements of the pre-PR revision (the PR-1 tip) on the
#: reference box that generated the committed BENCH_PR2.json.  ``cycles``
#: is machine-independent and must stay bit-identical; ``seconds`` is the
#: denominator of the reported speedup.
#:
#: em3d/hardware was re-pinned 610559 -> 610560 when the auditor PR's
#: rewrite of the DBP re-chase pruning policy (RECHASE_TABLE_MAX /
#: slack-based cutoff in prefetch/engines.py) moved the full-size run by
#: one cycle without refreshing this table; verified identical at that
#: commit and on current main, with and without profiling attached.
SEED_REFERENCE = {
    "health/hardware": {"seconds": 3.180, "cycles": 563314, "instructions": 314064},
    "em3d/hardware": {"seconds": 2.595, "cycles": 610560, "instructions": 174192},
    "treeadd/none": {"seconds": 1.419, "cycles": 298553, "instructions": 213955},
}

SINGLE_RUNS = (
    ("health", "hardware"),
    ("em3d", "hardware"),
    ("treeadd", "none"),
)

SWEEP_BENCHMARKS = ("treeadd", "em3d", "health")
REPS = 3
SPEEDUP_TARGET = 1.3


def _time_single(name: str, engine: str, cfg, params: dict | None = None) -> dict:
    program = get_workload(name, **(params or {})).build("baseline").program
    best = float("inf")
    result = None
    for __ in range(REPS):
        t0 = time.perf_counter()
        result = simulate(program, cfg, engine=engine)
        best = min(best, time.perf_counter() - t0)
    return {
        "seconds": round(best, 3),
        "cycles": result.cycles,
        "instructions": result.instructions,
        "sim_insts_per_sec": round(result.instructions / best),
    }


def _time_sweep(cfg, params, **kwargs) -> tuple[float, list]:
    t0 = time.perf_counter()
    rows = figure5(cfg, benchmarks=SWEEP_BENCHMARKS, params=params, **kwargs)
    return time.perf_counter() - t0, rows


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--assert-speedup", action="store_true",
                    help=f"fail unless single-run speedup >= {SPEEDUP_TARGET}x "
                         "and jobs-4 sweep beats serial")
    ap.add_argument("--quick", action="store_true",
                    help="test-size sweep only (skips the single-run and "
                         "seed-parity sections; for smoke-testing the script)")
    ap.add_argument("-o", "--output", default="BENCH_PR2.json")
    args = ap.parse_args(argv)

    report: dict = {"schema": "repro.bench_pr2/1",
                    "sim_engine": default_sim_engine()}

    if args.quick:
        cfg = small_config()
        params = {n: small_params(n) for n in SWEEP_BENCHMARKS}

        # Test-size throughput.  Absolute insts/s is box-dependent
        # (generous bench-diff tolerance required); cycles and
        # instructions are exact.
        report["quick_single_runs"] = {}
        for name, engine in SINGLE_RUNS:
            key = f"{name}/{engine}"
            row = _time_single(name, engine, cfg, small_params(name))
            report["quick_single_runs"][key] = row
            print(f"{key} (quick): {row['seconds']}s "
                  f"({row['sim_insts_per_sec']:,} sim insts/s)")
    else:
        cfg = bench_config()
        params = None

        report["single_runs"] = {}
        for name, engine in SINGLE_RUNS:
            key = f"{name}/{engine}"
            measured = _time_single(name, engine, cfg)
            seed = SEED_REFERENCE[key]
            assert measured["cycles"] == seed["cycles"], (
                f"{key}: simulated {measured['cycles']} cycles, seed "
                f"simulated {seed['cycles']} — the timing model changed"
            )
            measured["seed_seconds"] = seed["seconds"]
            measured["speedup_vs_seed"] = round(seed["seconds"] / measured["seconds"], 2)
            report["single_runs"][key] = measured
            print(f"{key}: {measured['seconds']}s "
                  f"({measured['sim_insts_per_sec']:,} sim insts/s, "
                  f"{measured['speedup_vs_seed']}x vs seed)")

    # Sweep: serial, parallel, then cold/warm against a fresh cache.
    t_serial, rows_serial = _time_sweep(cfg, params)
    t_par, rows_par = _time_sweep(cfg, params, jobs=4)
    assert rows_serial == rows_par, "serial and --jobs 4 rows diverged"

    tmp = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        cache = ResultCache(tmp)
        t_cold, rows_cold = _time_sweep(cfg, params, cache=cache)
        cold_stats = cache.stats()
        t_warm, rows_warm = _time_sweep(cfg, params, cache=cache)
        warm_stats = {k: v - cold_stats[k] for k, v in cache.stats().items()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    assert rows_cold == rows_warm == rows_serial, "cached rows diverged"
    assert warm_stats["misses"] == 0, (
        f"warm re-run missed the cache: {warm_stats}"
    )
    assert warm_stats["hits"] == cold_stats["misses"], (
        f"warm re-run did not serve every cell from cache: {warm_stats}"
    )

    report["sweep"] = {
        "benchmarks": list(SWEEP_BENCHMARKS),
        "cpu_count": os.cpu_count(),
        # The cgroup/affinity-aware count --jobs 0 would pick: the honest
        # denominator for judging jobs4_scaling on a throttled CI box.
        "detected_cpus": detect_cpus(),
        "cells": cold_stats["misses"],
        "serial_seconds": round(t_serial, 3),
        "jobs4_seconds": round(t_par, 3),
        "jobs4_scaling": round(t_serial / t_par, 2),
        # Scaling depends on free host cores, not on the code under
        # test; audit.bench classifies it "info" accordingly.
        "cpu_limited": True,
        "cold_cache_seconds": round(t_cold, 3),
        "warm_cache_seconds": round(t_warm, 3),
        "warm_speedup": round(t_cold / t_warm, 1),
        "warm_cache_stats": warm_stats,
    }
    print(f"sweep ({cold_stats['misses']} cells): serial {t_serial:.2f}s, "
          f"--jobs 4 {t_par:.2f}s ({t_serial / t_par:.2f}x), "
          f"warm cache {t_warm:.2f}s ({t_cold / t_warm:.0f}x vs cold)")

    if args.assert_speedup:
        assert not args.quick, "--assert-speedup needs the full run"
        for key, m in report["single_runs"].items():
            assert m["speedup_vs_seed"] >= SPEEDUP_TARGET, (
                f"{key}: {m['speedup_vs_seed']}x < {SPEEDUP_TARGET}x target"
            )
        # Scaling needs real cores: on a 1-CPU box --jobs 4 is pure
        # process overhead (parity above still proved correctness).
        # detect_cpus() respects cgroup quotas / CPU affinity, so a
        # 16-core host throttled to one core is judged as one core.
        if detect_cpus() >= 2:
            assert report["sweep"]["jobs4_scaling"] > 1.0, (
                "parallel sweep no faster than serial"
            )
        else:
            print("single-CPU machine: skipping the sweep-scaling assertion")

    with open(args.output, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
