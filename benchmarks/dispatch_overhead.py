"""Microbenchmark: per-cell dispatch overhead, monolithic vs layered path.

Run directly (also wired into CI)::

    python benchmarks/dispatch_overhead.py              # emit BENCH_PR9.json

In the monolithic path every dispatched cell crossed the process
boundary as a fully pickled :class:`RunSpec` — machine config included
— and the worker rebuilt its workload program from scratch.  The
layered path ships a compact JSON process-pool payload with the config
*by reference* (its content id, registered once per worker through the
pool initializer), and workers memoize both the materialized
:class:`MachineConfig` and the built program per
``(benchmark, params, variant)``.

This script measures both paths over the same cell population and
writes ``BENCH_PR9.json``:

1. **Wire cost** — bytes and encode+decode time per cell: pickled
   RunSpec (old) vs JSON payload plus the amortized one-time config
   registration (new).
2. **Worker setup cost** — per-cell config materialization and program
   build (old: every cell) vs the memoized path (new: once per distinct
   config / program, then dictionary hits).

The parity checks (payload round-trips to the identical RunSpec;
memoized program is the very object a fresh build produces cycles-wise)
are asserted unconditionally; the committed artifact pins the measured
ratios for ``repro bench-diff``.
"""

from __future__ import annotations

import argparse
import json
import pickle
import sys
import time

sys.path.insert(0, "src")

from repro import get_workload, small_config  # noqa: E402
from repro.config import MachineConfig  # noqa: E402
from repro.harness import small_params  # noqa: E402
from repro.harness.backends import (  # noqa: E402
    _init_pool_worker,
    _worker_config,
    _worker_program,
    dispatch_tables,
)
from repro.harness.cells import (  # noqa: E402
    RunSpec,
    job_payload,
    spec_from_payload,
)
from repro.workloads import workload_class  # noqa: E402

BENCHMARKS = ("treeadd", "em3d", "health")
REPS = 5


def _cells() -> list[RunSpec]:
    """A figure-5-shaped cell population: every variant of three
    benchmarks on the small machine, timing plus compute configs."""
    cfg = small_config()
    specs = []
    for bench in BENCHMARKS:
        params = small_params(bench)
        for variant in workload_class(bench).variants:
            specs.append(RunSpec.make(bench, variant, "none", cfg, params))
            specs.append(
                RunSpec.make(bench, variant, "none", cfg.perfect(), params)
            )
    return specs


def _best(fn, *args) -> float:
    best = float("inf")
    for __ in range(REPS):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-o", "--output", default="BENCH_PR9.json")
    args = ap.parse_args(argv)

    specs = _cells()
    n = len(specs)
    config_table, payloads = dispatch_tables(specs)

    # -- wire cost ----------------------------------------------------
    # Old: one pickled RunSpec per cell (the config rides inside every
    # single message).  New: one JSON payload per cell + each distinct
    # config dict sent once, amortized over the population.
    def old_wire() -> None:
        for spec in specs:
            pickle.loads(pickle.dumps(spec))

    def new_wire() -> None:
        for cid, data in config_table.items():
            json.loads(json.dumps({"id": cid, "data": data}))
        for spec in specs:
            json.loads(json.dumps(payloads[spec]))

    old_bytes = sum(len(pickle.dumps(s)) for s in specs)
    new_bytes = sum(
        len(json.dumps(payloads[s]).encode()) for s in specs
    ) + sum(
        len(json.dumps({"id": cid, "data": data}).encode())
        for cid, data in config_table.items()
    )
    t_old_wire = _best(old_wire)
    t_new_wire = _best(new_wire)

    # Parity: the compact payload must rebuild the identical cell.
    for spec in specs:
        cfg = MachineConfig.from_dict(config_table[payloads[spec]["config"]])
        assert spec_from_payload(payloads[spec], cfg) == spec, (
            f"payload round-trip changed {spec.describe()}"
        )

    # -- worker setup cost --------------------------------------------
    # Old: every dispatched cell materializes its config and builds its
    # program from the workload source.  New: both are per-worker
    # memoized — first touch pays, every later cell is a dict hit.
    def old_setup() -> None:
        for spec in specs:
            MachineConfig.from_dict(config_table[payloads[spec]["config"]])
            get_workload(spec.benchmark, **dict(spec.params)).build(
                spec.variant
            )

    _init_pool_worker(config_table, None)

    def new_setup() -> None:
        for spec in specs:
            _worker_config(payloads[spec]["config"])
            _worker_program(spec)

    t_old_setup = _best(old_setup)
    new_setup()  # warm the memos: steady-state is what a sweep sees
    t_new_setup = _best(new_setup)

    us = 1e6 / n
    report = {
        "schema": "repro.bench_pr9/1",
        "cells": n,
        "distinct_configs": len(config_table),
        "wire": {
            "old_bytes_per_cell": round(old_bytes / n),
            "new_bytes_per_cell": round(new_bytes / n),
            "bytes_ratio": round(old_bytes / new_bytes, 2),
            "old_us_per_cell": round(t_old_wire * us, 1),
            "new_us_per_cell": round(t_new_wire * us, 1),
            "speedup": round(t_old_wire / t_new_wire, 2),
        },
        "worker_setup": {
            "old_us_per_cell": round(t_old_setup * us, 1),
            "new_us_per_cell": round(t_new_setup * us, 1),
            "speedup": round(t_old_setup / t_new_setup, 2),
        },
        "dispatch": {
            "old_us_per_cell": round((t_old_wire + t_old_setup) * us, 1),
            "new_us_per_cell": round((t_new_wire + t_new_setup) * us, 1),
            "speedup": round(
                (t_old_wire + t_old_setup) / (t_new_wire + t_new_setup), 2
            ),
        },
    }

    print(f"{n} cells, {len(config_table)} distinct configs")
    print(f"wire:   {report['wire']['old_us_per_cell']}us -> "
          f"{report['wire']['new_us_per_cell']}us per cell "
          f"({report['wire']['speedup']}x), "
          f"{report['wire']['old_bytes_per_cell']}B -> "
          f"{report['wire']['new_bytes_per_cell']}B "
          f"({report['wire']['bytes_ratio']}x smaller)")
    print(f"setup:  {report['worker_setup']['old_us_per_cell']}us -> "
          f"{report['worker_setup']['new_us_per_cell']}us per cell "
          f"({report['worker_setup']['speedup']}x)")
    print(f"total:  {report['dispatch']['old_us_per_cell']}us -> "
          f"{report['dispatch']['new_us_per_cell']}us per cell "
          f"({report['dispatch']['speedup']}x)")

    assert report["dispatch"]["speedup"] > 1.0, (
        "layered dispatch is not cheaper than the monolithic path"
    )

    with open(args.output, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
