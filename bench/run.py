"""Benchmark for the repro simulator: four sweep workloads.

Run from the root of a checkout::

    python3 bench/run.py                             # every workload, end to end
    python3 bench/run.py --workload fig5-membound    # one workload
    python3 bench/run.py --traced                    # per-layer split (= --trace 1)

Each workload sweeps a shipped experiment spec through the public
harness into fresh (cold) result caches, reruns it warm, and checks every
cell: no errors, identical cycles and rows on every pass, and each
program's functional result verified.  The untraced run prints the
end-to-end metrics; the traced run prints the per-layer host-time split.
Either way the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit
code is non-zero if any check failed.  Without ``--workload`` every
workload runs in its own fresh process.  A run record (seed, resolved
parameters, host, digests, paper drift table) is written under
``.bench_run/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SECONDS = 12


def environment_problem() -> str | None:
    """Why this checkout or environment cannot be benchmarked, if it can't."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return f"no simulator source at {ROOT / 'src' / 'repro'}"
    pinned = sorted(k for k in os.environ
                    if k == "REPRO_SIM_ENGINE" or k.startswith("REPRO_JIT_"))
    if pinned:
        return (f"refusing to run with {', '.join(pinned)} set: the benchmark "
                "measures the shipped default simulation engine")
    return None


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="one workload (default: all four)")
    ap.add_argument("--seed", type=int, default=0,
                    help="input seed; 0 runs the shipped sizes")
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                    help="cold-sweep time budget per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1 prints the per-layer metrics of a traced run")
    ap.add_argument("--traced", action="store_true", help="same as --trace 1")
    args = ap.parse_args(argv)
    args.trace = bool(args.trace or args.traced)
    return args


def print_report(report) -> None:
    from repro.harness.reporting import format_table

    rec = report.record
    mode = "traced per-layer split" if report.traced else "end to end"
    print(f"== {report.workload} · seed {report.seed} · {mode} ==")
    print(f"why: {rec['why']}")
    print("run: " + " ".join(f"{k}={v}" for k, v in rec["run"].items()))
    print(f"machine {rec['machine']}, jobs {rec['jobs']}, params:")
    for bench, params in rec["params"].items():
        print(f"  {bench:10s} " + " ".join(f"{k}={v}" for k, v in params.items()))
    if report.traced:
        print(f"cells per sweep {rec['cells']} · untraced "
              f"{rec['untraced_wall_s']:.3f} s · traced cold/warm "
              f"{rec['traced_walls_s'][0]:.3f}/{rec['traced_walls_s'][1]:.3f} s"
              f" · cycle digest {rec['cycle_digest']} (traced "
              f"{rec['traced_cycle_digest']})")
        layers = {k[:-7]: v for k, v in report.metrics.items()
                  if k.endswith(".self_s")}
        total = sum(layers.values()) or 1.0
        print("host self time share: " + ", ".join(
            f"{k} {100 * v / total:.1f}%" for k, v in
            sorted(layers.items(), key=lambda kv: -kv[1])))
        print(f"chrome trace: {rec['trace_path']}")
    else:
        walls = ", ".join(f"{w:.3f}" for w in rec["cold_walls_s"])
        print(f"cells per sweep {rec['cells']} · cold sweeps "
              f"{len(rec['cold_walls_s'])} ({walls} s) · warm reruns "
              f"{len(rec['warm_walls_s'])} · cycle digest {rec['cycle_digest']}")
        paper = rec["paper"]
        if any(r["observed"] is not None for r in paper["drift"]):
            print(format_table(paper["drift"], title=(
                "Paper targets (Figure 5 averages over this sweep's "
                f"memory-bound rows): mean |drift| {paper['err_pp']:.2f} pp, "
                f"{paper['misses']} of {len(paper['drift'])} missed")))
        else:
            print("Paper targets: none observable (no prefetching scheme "
                  "on a memory-bound kernel in this sweep)")
    line = report.result_line()
    print(format_table([{"metric": k, "value": v["value"], "unit": v["unit"]}
                        for k, v in line["metrics"].items()]))
    for problem in report.checker.problems:
        print(f"FAILED CHECK: {problem}")


def run_one(args: argparse.Namespace) -> int:
    import measure
    import suite

    if args.workload not in suite.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(suite.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.trace:
        report = measure.measure_traced(args.workload, args.seed)
    else:
        report = measure.measure_e2e(args.workload, args.seed, args.seconds)
    print_report(report)
    line = report.result_line()
    kind = "traced" if report.traced else "e2e"
    path = measure.WORK / f"{args.workload}-seed{args.seed}-{kind}.json"
    path.write_text(json.dumps({**report.record, "result": line,
                                "problems": report.checker.problems},
                               indent=1, default=str) + "\n")
    print(f"run record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh process; one combined result line."""
    import suite

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in suite.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(int(args.trace))],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        try:
            line = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        combined["metrics"][name] = line["metrics"]
    print(json.dumps(combined))
    return status or (0 if combined["correct"] else 1)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    problem = environment_problem()
    if problem:
        print(f"bench: {problem}", file=sys.stderr)
        return 2
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
