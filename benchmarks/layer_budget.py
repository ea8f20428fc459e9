"""Host-time budget per simulator layer, by subtracting runs.

Run directly (also wired into CI)::

    python benchmarks/layer_budget.py                 # emit BENCH_LAYERS.json
    python benchmarks/layer_budget.py -o /tmp/layers.json

The hot loop carries no timers.  Instead every kernel is run four ways,
each a strict superset of the previous one's work, on the ``bench``
machine at full size:

(a) ``functional`` — drain the decode-table interpreter, no timing model;
(b) ``perfect``    — the timing model with single-cycle data memory
    (``cfg.perfect()``: the hierarchy returns before touching a cache);
(c) ``hierarchy``  — the real memory hierarchy, prefetch engine ``none``;
(d) ``prefetch``   — (c) plus the ``hardware`` jump-pointer engine.

Per committed instruction of the kernel, the layers are then
``isa = a``, ``cpu = b - a``, ``mem = c - b`` and ``prefetch = d - c``
(each the best of ``REPS`` runs).  ``cpu`` therefore covers the timing
core, the branch predictor and the instruction-side fetch path; it is
the share the timing-core work targets.

One run of (c) is repeated under :mod:`cProfile` and its self time is
grouped by package (``isa``, ``cpu``, ``mem``; the instruction-fetch
path counted as ``cpu``, as the subtraction does) as a cross-check that
the subtraction is honest; the report keeps both share tables side by
side.  The host CPU count and Python version are
recorded, since absolute times only compare on one box.

Simulated cycles and instruction counts are exact leaves for
``repro bench-diff``; ``*seconds`` and ``isa``/``cpu`` nanoseconds per
instruction are wall-clock leaves.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import platform
import pstats
import sys
import time

sys.path.insert(0, "src")

from repro import bench_config, get_workload, simulate  # noqa: E402
from repro.isa.interpreter import Interpreter  # noqa: E402

#: Memory-bound kernels (the paper's Figure 5 set) and compute-bound ones.
KERNELS = ("treeadd", "em3d", "health", "bisort", "tsp")
CROSS_CHECK = "health"
REPS = 5
LAYERS = ("isa", "cpu", "mem", "prefetch")
PACKAGES = {"isa": "/repro/isa/", "cpu": "/repro/cpu/", "mem": "/repro/mem/",
            "prefetch": "/repro/prefetch/"}


def _drain(program) -> int:
    interp = Interpreter(program)
    for __ in interp.run():
        pass
    return interp.steps


def _budget(name: str, cfg) -> dict:
    program = get_workload(name).build("baseline").program
    modes = {
        "functional": lambda: _drain(program),
        "perfect": lambda: simulate(program, cfg.perfect(), engine="none"),
        "hierarchy": lambda: simulate(program, cfg, engine="none"),
        "prefetch": lambda: simulate(program, cfg, engine="hardware"),
    }
    # Repetitions are the outer loop, so a burst of host noise costs each
    # mode at most one of its samples.
    best = dict.fromkeys(modes, float("inf"))
    out = {}
    for __ in range(REPS):
        for mode, fn in modes.items():
            t0 = time.perf_counter()
            out[mode] = fn()
            best[mode] = min(best[mode], time.perf_counter() - t0)
    steps = out.pop("functional")
    row: dict = {"instructions": steps,
                 "functional": {"seconds": round(best["functional"], 4)}}
    for mode, result in out.items():
        assert result.instructions == steps, (name, mode)
        row[mode] = {"cycles": result.cycles, "seconds": round(best[mode], 4)}
    ns = 1e9 / steps
    row["layers"] = {
        f"{layer}_ns_per_inst": round((best[hi] - (best[lo] if lo else 0)) * ns, 1)
        for layer, hi, lo in (("isa", "functional", None),
                              ("cpu", "perfect", "functional"),
                              ("mem", "hierarchy", "perfect"),
                              ("prefetch", "prefetch", "hierarchy"))
    }
    return row


def _cross_check(name: str, cfg, row: dict) -> dict:
    """Layer shares of run (c) from cProfile self time vs subtraction."""
    program = get_workload(name).build("baseline").program
    prof = cProfile.Profile()
    prof.runcall(simulate, program, cfg, engine="none")
    profiled = dict.fromkeys(LAYERS[:3], 0.0)
    for (path, __, func), (__, __, tottime, cumtime, __) in pstats.Stats(
            prof).stats.items():
        path = path.replace(os.sep, "/")
        for layer in profiled:
            if PACKAGES[layer] in path:
                profiled[layer] += tottime
        if func == "inst_fetch" and PACKAGES["mem"] in path:
            # The subtraction books the instruction side under cpu (the
            # perfect-memory run still fetches through the I-cache).
            profiled["cpu"] += cumtime
            profiled["mem"] -= cumtime
    subtracted = {k: row["layers"][f"{k}_ns_per_inst"] for k in profiled}

    def shares(d: dict) -> dict:
        total = sum(d.values())
        return {k: round(100 * v / total, 1) for k, v in d.items()}

    return {"kernel": name, "profiled_share": shares(profiled),
            "subtracted_share": shares(subtracted)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-o", "--output", default="BENCH_LAYERS.json")
    args = ap.parse_args(argv)

    cfg = bench_config()
    report: dict = {
        "schema": "repro.layer_budget/1",
        "machine": "bench",
        "host": {"cpu_count": os.cpu_count(),
                 "python": platform.python_version()},
        "kernels": {},
    }
    print(f"{'kernel':10} {'insts':>8} " + " ".join(
        f"{layer + ' ns/inst':>16}" for layer in LAYERS))
    for name in KERNELS:
        row = report["kernels"][name] = _budget(name, cfg)
        print(f"{name:10} {row['instructions']:8d} " + " ".join(
            f"{row['layers'][f'{layer}_ns_per_inst']:16.0f}" for layer in LAYERS))
        if name == CROSS_CHECK:
            check = report["cross_check"] = _cross_check(name, cfg, row)
    print(f"cross-check on {CROSS_CHECK} (share of isa+cpu+mem, %): "
          f"cProfile {check['profiled_share']}, "
          f"subtraction {check['subtracted_share']}")

    with open(args.output, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
