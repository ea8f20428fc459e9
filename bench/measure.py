"""Timed sweep passes, their correctness checks, and the metrics.

A *pass* is one complete sweep of a workload's spec through the public
harness: ``compile_spec`` -> ``SweepPlan.execute`` -> ``assemble_rows``,
against a result cache that is either fresh (cold) or already filled by
the previous pass (warm).  End-to-end numbers come from untraced passes
only; :func:`measure_traced` adds one traced cold and one traced warm
pass for the per-layer split.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

import suite
from layers import LayerTracer
from repro.audit.paper_targets import (
    FIGURE5_TARGETS,
    evaluate_targets,
    figure5_observations,
)
from repro.harness import spec as spec_module
from repro.harness.backends import detect_cpus
from repro.harness.cache import ResultCache, code_fingerprint
from repro.harness.executor import SweepExecutor, SweepResults
from repro.harness.experiments import figure5_summary
from repro.harness.spec import CompiledSpec, ExperimentSpec
from repro.isa import run_to_completion
from repro.isa.engines import resolve_sim_engine
from repro.workloads import get_workload

BENCH = Path(__file__).resolve().parent
#: Scratch space for result caches, run records and traces.
WORK = suite.ROOT / ".bench_run"
#: Fresh processes timed for ``setup_s``.
SETUP_PROBES = 5


@dataclass
class Pass:
    """One sweep of a workload's spec."""

    wall: float
    compiled: CompiledSpec
    rows: list[dict[str, object]]
    results: SweepResults
    executed: int
    cache_hits: int
    cache_misses: int
    cache_dir: Path


def run_pass(spec: ExperimentSpec, jobs: int, cache_dir: Path) -> Pass:
    """Compile, execute and assemble ``spec``, timing all three."""
    cache = ResultCache(cache_dir)
    executor = SweepExecutor(jobs=jobs, cache=cache)
    start = time.perf_counter()
    compiled = spec_module.compile_spec(spec)
    results = compiled.plan.execute(executor=executor)
    rows = spec_module.assemble_rows(compiled.spec, compiled.rows, results)
    wall = time.perf_counter() - start
    return Pass(wall, compiled, rows, results, executor.stats()["executed"],
                cache.hits, cache.misses, cache_dir)


def cell_outcomes(results: SweepResults) -> dict[str, tuple[int, int] | None]:
    """``cell -> (cycles, instructions)``; None for a failed cell."""
    return {
        spec.describe(): (cell.result.cycles, cell.result.instructions)
        if cell.ok else None
        for spec, cell in results.cells.items()
    }


def digest(outcomes: dict[str, tuple[int, int] | None]) -> str:
    """Order-independent fingerprint of every cell's cycles."""
    text = "\n".join(f"{k} {v}" for k, v in sorted(outcomes.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------

@dataclass
class Checker:
    """Counts checked cells and the ones that failed a check.

    A cell fails when it errors, or when its cycles, instructions or
    report row differ from the first pass (across reps, cold against
    warm, and traced against untraced), or when its program fails
    ``BuiltProgram.verify`` or disagrees with the timing run's
    instruction count."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    reference: dict[str, tuple[int, int] | None] | None = None
    reference_rows: list[dict[str, object]] | None = None

    def check_pass(self, label: str, p: Pass, warm: bool = False) -> None:
        outcomes = cell_outcomes(p.results)
        self.attempted += len(outcomes)
        bad: set[str] = set()
        for spec, cell in p.results.cells.items():
            if not cell.ok:
                bad.add(spec.describe())
                brief = (cell.error or "").strip().splitlines()[-1:]
                self.problems.append(f"{label}: {spec.describe()} failed: "
                                     f"{' '.join(brief)}")
        if self.reference is None:
            self.reference, self.reference_rows = outcomes, p.rows
        else:
            for key, value in sorted(outcomes.items()):
                if value is not None and self.reference.get(key) != value:
                    bad.add(key)
                    self.problems.append(
                        f"{label}: {key} gave {value}, first pass gave "
                        f"{self.reference.get(key)}")
            if p.rows != self.reference_rows:
                self.problems.append(f"{label}: report rows differ from the "
                                     "first pass")
                self.failed += abs(len(p.rows) - len(self.reference_rows)) + sum(
                    a != b for a, b in zip(p.rows, self.reference_rows))
        if warm and p.executed:
            self.problems.append(f"{label}: warm rerun executed {p.executed} "
                                 "cells instead of reading the cache")
            self.failed += p.executed
        self.failed += len(bad)

    def verify_programs(self, results: SweepResults) -> None:
        """Run each distinct program functionally and check its result."""
        counts: dict[tuple, list[int]] = defaultdict(list)
        for spec, cell in results.cells.items():
            if spec.kind == "sim" and cell.ok:
                counts[(spec.benchmark, spec.params, spec.variant)].append(
                    cell.result.instructions)
        for (bench, params, variant), insts in sorted(counts.items()):
            label = f"{bench}[{variant}] {dict(params)}"
            try:
                built = get_workload(bench, **dict(params)).build(variant)
                interp = run_to_completion(built.program)
                built.verify(interp)
            except Exception as exc:  # a failed check is a result to report
                self.problems.append(f"verify {label}: {type(exc).__name__}: {exc}")
                self.failed += len(insts)
                continue
            wrong = [n for n in insts if n != interp.steps]
            if wrong:
                self.problems.append(f"verify {label}: timing runs committed "
                                     f"{wrong}, functional run {interp.steps}")
                self.failed += len(wrong)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


# ----------------------------------------------------------------------
# Paper score and simulated statistics (deterministic for a seed)
# ----------------------------------------------------------------------

def scheme_runs(p: Pass) -> list:
    """Every successful (run, base) pair the spec reports, as SchemeRuns."""
    pairs = []
    for planned in p.compiled.rows:
        if planned.run is None or planned.base is None:
            continue
        if p.results.error(planned.run) or p.results.error(planned.base):
            continue
        pairs.append((planned.benchmark, planned.label,
                      p.results.scheme_run(planned.run),
                      p.results.scheme_run(planned.base)))
    return pairs


def paper_score(p: Pass) -> tuple[list[dict], float, int]:
    """Drift rows, mean |observed - paper| in pp, and out-of-band count.

    Figure-5 rows are rebuilt from the pass with the same formulas and
    rounding as the spec's ``normalized`` / ``mem_reduction%`` columns,
    then scored by ``figure5_summary`` -> ``figure5_observations`` ->
    ``evaluate_targets``.  A target the sweep cannot observe counts as
    a miss and adds nothing to the mean."""
    rows = [{
        "benchmark": bench, "scheme": label,
        "normalized": round(run.normalized(base.total), 3),
        "mem_reduction%": round(100 * run.memory_reduction(base.memory), 1),
    } for bench, label, run, base in scheme_runs(p)]
    drift = evaluate_targets(figure5_observations(figure5_summary(rows)),
                             FIGURE5_TARGETS, skip_missing=False)
    errors = [abs(r["drift"]) for r in drift if r["drift"] is not None]
    err = statistics.fmean(errors) if errors else 0.0
    return drift, err, sum(not r["ok"] for r in drift)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def model_stats(p: Pass) -> dict[str, float]:
    """Simulated (not host) statistics summed over the pass's cells."""
    sims = [c.result for s, c in p.results.cells.items()
            if c.ok and s.kind == "sim"]
    total = sum(r.hierarchy.prefetches_issued for r in sims)
    runs = [run for __, __, run, __ in scheme_runs(p)]
    return {
        "sim.cycles": sum(r.cycles for r in sims),
        "mem.l1d_miss_rate": ratio(sum(r.l1d_misses for r in sims),
                                   sum(r.l1d_accesses for r in sims)),
        "mem.l2_miss_rate": ratio(sum(r.l2_misses for r in sims),
                                  sum(r.l2_accesses for r in sims)),
        "mem.stall_share": ratio(sum(r.memory for r in runs),
                                 sum(r.total for r in runs)),
        "prefetch.issued": total,
        "prefetch.useful_ratio": ratio(
            sum(r.hierarchy.prefetches_useful for r in sims), total),
        "prefetch.prq_drops": sum(r.engine.prq_drops for r in sims),
    }


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------

#: End-to-end metrics (untraced passes) and their units.
E2E_UNITS = {
    "sweep_s": "s",
    "sim_kips": "kinst/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced run) and their units.
LAYER_UNITS = {
    "isa.self_s": "s", "isa.insts": "count", "isa.ns_per_inst": "ns/inst",
    "cpu.self_s": "s", "cpu.runs": "count", "cpu.ns_per_inst": "ns/inst",
    "mem.self_s": "s", "mem.calls": "count", "mem.data_access.calls": "count",
    "mem.prefetch_request.calls": "count", "mem.ns_per_call": "ns/call",
    "prefetch.self_s": "s", "prefetch.calls": "count",
    "obs.self_s": "s", "obs.calls": "count",
    "workloads.self_s": "s", "workloads.builds": "count",
    "harness.self_s": "s", "harness.cells": "count",
    "harness.cache_hits": "count", "harness.cache_misses": "count",
    "harness.cache_s": "s", "harness.us_per_cell": "us/cell",
    "harness.warm_s": "s",
    "mem.l1d_miss_rate": "ratio", "mem.l2_miss_rate": "ratio",
    "mem.stall_share": "ratio", "prefetch.issued": "count",
    "prefetch.useful_ratio": "ratio", "prefetch.prq_drops": "count",
    "sim.cycles": "count", "paper.err_pp": "pp", "paper.misses": "count",
    "trace.overhead": "ratio",
}


@dataclass
class Report:
    """Everything one benchmark invocation measured."""

    workload: str
    seed: int
    traced: bool
    metrics: dict[str, float]
    checker: Checker
    record: dict[str, Any]

    def result_line(self) -> dict[str, Any]:
        """The summary printed as the last stdout line."""
        units = LAYER_UNITS if self.traced else E2E_UNITS
        return {
            "correct": self.checker.correct,
            "attempted": self.checker.attempted,
            "failed": self.checker.failed,
            "metrics": {k: {"value": self.metrics[k], "unit": u}
                        for k, u in units.items()},
        }


def setup_seconds(name: str, seed: int) -> list[float]:
    """``import repro`` + ``load_spec`` + ``compile_spec``, each timed
    inside a fresh interpreter (its own start-up excluded)."""
    times = []
    for __ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), name, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
            cwd=suite.ROOT,
        )
        times.append(float(out.stdout.split()[-1]))
    return times


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def git_head() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = suite.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record() -> dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "detect_cpus": detect_cpus(),
        "python": platform.python_version(),
        "sim_engine": resolve_sim_engine(None).name,
        "code_fingerprint": code_fingerprint(),
        "git_head": git_head(),
    }


def _scratch(name: str) -> tempfile.TemporaryDirectory:
    """A fresh directory under :data:`WORK` for one run's result caches."""
    WORK.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(prefix=f"{name}-", dir=WORK)


def _cache_dirs(root: str) -> Iterator[Path]:
    return (Path(root) / f"cache{i}" for i in itertools.count())


def _base_record(wl: suite.BenchWorkload, seed: int, spec: ExperimentSpec) -> dict:
    return {
        "workload": wl.name,
        "why": wl.why,
        "seed": seed,
        "machine": spec.machine,
        "params": suite.resolved_params(spec),
        "jobs": wl.jobs,
        "run": run_record(),
    }


def warm_reruns(spec: ExperimentSpec, jobs: int, cache_dir: Path, n: int,
                checker: Checker, label: str) -> list[float]:
    """``n`` checked passes against an already filled cache; their walls."""
    walls = []
    for i in range(n):
        warm = run_pass(spec, jobs, cache_dir)
        checker.check_pass(f"{label} {i + 1}", warm, warm=True)
        walls.append(warm.wall)
    return walls


def measure_e2e(name: str, seed: int, seconds: float) -> Report:
    """Cold sweeps for ``seconds`` (at least ``min_reps``), then warm
    reruns, set-up probes and the untimed program checks."""
    wl = suite.WORKLOADS[name]
    spec = suite.build_spec(name, seed)
    checker = Checker()
    walls: list[float] = []
    with _scratch(name) as tmp:
        caches = _cache_dirs(tmp)
        start = time.perf_counter()
        while len(walls) < wl.min_reps or (
            time.perf_counter() - start + walls[-1] <= seconds
        ):
            if walls:
                shutil.rmtree(cold.cache_dir, ignore_errors=True)
            cold = run_pass(spec, wl.jobs, next(caches))
            checker.check_pass(f"cold {len(walls) + 1}", cold)
            walls.append(cold.wall)
            # Only the first pass is kept, so memory does not grow with
            # the number of reps a run happens to fit in.
            if len(walls) == 1:
                first = cold
        warm_walls = warm_reruns(spec, wl.jobs, cold.cache_dir,
                                 wl.warm_reruns, checker, "warm")
    checker.verify_programs(first.results)
    setup = setup_seconds(name, seed)
    sweep_s = statistics.median(walls)
    outcomes = cell_outcomes(first.results)
    insts = sum(v[1] for v in outcomes.values() if v)
    drift, err, misses = paper_score(first)
    metrics = {
        "sweep_s": sweep_s,
        "sim_kips": insts / sweep_s / 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
    }
    record = _base_record(wl, seed, spec)
    record.update({
        "cells": len(first.results.cells),
        "executed_per_cold_sweep": first.executed,
        "instructions_per_sweep": insts,
        "cold_walls_s": walls,
        "warm_walls_s": warm_walls,
        "setup_walls_s": setup,
        "cycle_digest": digest(outcomes),
        "paper": {"err_pp": err, "misses": misses, "drift": drift},
    })
    return Report(name, seed, False, metrics, checker, record)


def measure_traced(name: str, seed: int) -> Report:
    """Per-layer split: an untraced serial reference sweep and its warm
    reruns, then one traced cold and one traced warm sweep."""
    wl = suite.WORKLOADS[name]
    spec = suite.build_spec(name, seed)
    checker = Checker()
    tracer = LayerTracer()
    with _scratch(name) as tmp:
        caches = _cache_dirs(tmp)
        ref = run_pass(spec, 1, next(caches))
        checker.check_pass("untraced", ref)
        warm_walls = warm_reruns(spec, 1, ref.cache_dir, wl.warm_reruns,
                                 checker, "untraced warm")
        tracer.install()
        try:
            with tracer.root("traced cold"):
                cold = run_pass(spec, 1, next(caches))
            after_cold = tracer.snapshot()
            with tracer.root("traced warm"):
                warm = run_pass(spec, 1, cold.cache_dir)
        finally:
            tracer.uninstall()
    checker.check_pass("traced cold", cold)
    checker.check_pass("traced warm", warm, warm=True)
    checker.verify_programs(ref.results)
    totals = tracer.snapshot()
    warm_delta = {k: v - after_cold[k] for k, v in totals.items()}
    metrics = layer_metrics(tracer, [cold, warm])
    metrics.update(model_stats(ref))
    __, err, misses = paper_score(ref)
    metrics.update({
        "harness.warm_s": statistics.median(warm_walls),
        "paper.err_pp": err,
        "paper.misses": misses,
        "trace.overhead": cold.wall / ref.wall,
    })
    outcomes = cell_outcomes(ref.results)
    record = _base_record(wl, seed, spec)
    record.update({
        "cells": len(outcomes),
        "instructions_per_sweep": sum(v[1] for v in outcomes.values() if v),
        "untraced_wall_s": ref.wall,
        "traced_walls_s": [cold.wall, warm.wall],
        "cycle_digest": digest(outcomes),
        "traced_cycle_digest": digest(cell_outcomes(cold.results)),
        "passes": {"cold": after_cold, "warm": warm_delta},
        "warm_cache_hits": warm.cache_hits,
        "trace_path": str(trace_path(name, seed)),
    })
    tracer.write_chrome_trace(trace_path(name, seed), {
        "workload": name, "seed": seed, **record["run"]})
    return Report(name, seed, True, metrics, checker, record)


def trace_path(name: str, seed: int) -> Path:
    return WORK / f"{name}-seed{seed}.trace.json"


def layer_metrics(tracer: LayerTracer, passes: list[Pass]) -> dict[str, float]:
    """Per-layer host time and counts over the traced passes."""
    calls, self_s = tracer.calls, tracer.self_s

    def total(layer: str) -> int:
        return sum(n for k, n in calls.items() if k.startswith(layer + "."))

    insts = tracer.insts
    cells = sum(len(p.results.cells) for p in passes)
    return {
        "isa.self_s": self_s["isa"],
        "isa.insts": insts,
        "isa.ns_per_inst": ratio(self_s["isa"], insts) * 1e9,
        "cpu.self_s": self_s["cpu"],
        "cpu.runs": calls["cpu.run"],
        "cpu.ns_per_inst": ratio(self_s["cpu"], insts) * 1e9,
        "mem.self_s": self_s["mem"],
        "mem.calls": total("mem"),
        "mem.data_access.calls": calls["mem.data_access"],
        "mem.prefetch_request.calls": calls["mem.prefetch_request"],
        "mem.ns_per_call": ratio(self_s["mem"], total("mem")) * 1e9,
        "prefetch.self_s": self_s["prefetch"],
        "prefetch.calls": total("prefetch"),
        "obs.self_s": self_s["obs"],
        "obs.calls": total("obs"),
        "workloads.self_s": self_s["workloads"],
        "workloads.builds": calls["workloads.build"],
        "harness.self_s": self_s["harness"],
        "harness.cells": cells,
        "harness.cache_hits": sum(p.cache_hits for p in passes),
        "harness.cache_misses": sum(p.cache_misses for p in passes),
        "harness.cache_s": (tracer.inclusive_s["harness.get"]
                            + tracer.inclusive_s["harness.put"]),
        "harness.us_per_cell": ratio(self_s["harness"], cells) * 1e6,
    }
