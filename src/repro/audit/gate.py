"""The audit gate: invariant sweeps, differential checks, fidelity drift.

Three entry points, composed by the ``repro audit`` CLI subcommand and
the CI ``audit`` job:

* :func:`audit_workloads` — run every registered workload under every
  scheme on a named machine with an :class:`~repro.audit.Auditor`
  attached; any conservation-law violation fails the gate.  A
  :class:`~repro.harness.faults.FaultPlan` whose ``corrupt`` rules match
  a cell routes that cell through
  :func:`~repro.audit.invariants.corrupt_outcome_tracker` — the drill
  proving the auditor actually catches mis-classified outcomes.
* :func:`differential_check` — for every golden-pinned cell, run the
  decode-table and reference interpreters in lockstep and report the
  first divergent committed instruction; a sample of cells additionally
  re-runs the full timing simulation on the reference path and diffs
  final stats field-by-field.
* :func:`fidelity_gate` — re-run the golden cells and report per-metric
  drift (golden vs observed, signed delta) instead of a bare mismatch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from ..config import get_machine
from ..cpu.simulator import simulate
from ..errors import WorkloadError
from ..harness.executor import RunSpec
from ..harness.faults import FaultPlan
from ..harness.runner import BenchmarkRunner
from ..harness.schemes import scheme_names, scheme_plan
from ..obs import Telemetry
from ..workloads import get_workload, workload_class, workload_names
from .diff import diff_commit_streams, diff_results, reference_simulate
from .invariants import Auditor, corrupt_mshr_tracker, corrupt_outcome_tracker

#: Default golden pin file (the repo's timing contract).
DEFAULT_GOLDEN = Path(__file__).resolve().parents[3] / "tests" / "golden_cycles.json"

#: Metrics the fidelity gate tracks per golden cell.
GOLDEN_METRICS = ("cycles", "compute", "instructions")


@dataclass
class AuditCell:
    """One audited simulation cell and what the auditor saw."""

    benchmark: str
    scheme: str
    variant: str
    engine: str
    checks: int
    violations: list = field(default_factory=list)
    corrupted: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations

    def row(self) -> dict[str, Any]:
        return {
            "benchmark": self.benchmark,
            "scheme": self.scheme,
            "variant": self.variant,
            "engine": self.engine,
            "checks": self.checks,
            "violations": len(self.violations),
            "first": self.violations[0].invariant if self.violations else "-",
            "drill": "corrupt" if self.corrupted else "-",
        }


def audit_workloads(
    machine: str = "small",
    workloads: Iterable[str] | None = None,
    schemes: Iterable[str] | None = None,
    interval: int = 512,
    faults: FaultPlan | None = None,
    strict: bool = False,
    mshr_model: str | None = None,
) -> list[AuditCell]:
    """Sweep the invariant checker over the workload/scheme matrix.

    Workloads run at their quick test sizes on the named machine;
    ``mshr_model`` overrides the machine's MSHR model so the
    non-blocking hierarchies run under the same sweep (and arm the MSHR
    conservation laws).  Cells matched by a ``corrupt`` fault rule get a
    deliberately broken outcome tracker — plus, under a non-blocking
    model, a skewed MSHR allocation counter; with a working auditor
    those cells (and only those) report violations.
    """
    cfg = get_machine(machine)
    if mshr_model is not None:
        cfg = cfg.with_overrides({"mshr_model": mshr_model})
    cells: list[AuditCell] = []
    for name in workloads or workload_names():
        workload = get_workload(name, **workload_class(name).test_params())
        programs: dict[str, Any] = {}
        for scheme in schemes or scheme_names():
            try:
                variant, engine = scheme_plan(workload, scheme, None)
            except WorkloadError:
                continue  # workload has no variant for this scheme
            if variant not in programs:
                programs[variant] = workload.build(variant).program
            telemetry = Telemetry()
            auditor = Auditor(interval=interval, strict=strict)
            corrupted = False
            if faults is not None:
                spec = RunSpec.make(name, variant, engine, cfg,
                                    dict(workload.params))
                if faults.corrupts(spec):
                    # after=0: tiny test-size runs issue few prefetches,
                    # so mis-classify from the very first one.
                    corrupt_outcome_tracker(telemetry.outcomes, after=0)
                    if cfg.mshr_model != "blocking":
                        # The MSHR laws only arm under the non-blocking
                        # models; drill them in the same corrupt cells.
                        corrupt_mshr_tracker(auditor, after=0)
                    corrupted = True
            simulate(
                programs[variant], cfg, engine=engine,
                telemetry=telemetry, audit=auditor,
            )
            cells.append(AuditCell(
                benchmark=name, scheme=scheme, variant=variant,
                engine=engine, checks=auditor.checks,
                violations=list(auditor.violations), corrupted=corrupted,
            ))
    return cells


# ----------------------------------------------------------------------
# Differential validation over the golden-pinned cells
# ----------------------------------------------------------------------

def load_golden(path: str | Path | None = None) -> dict[str, Any]:
    return json.loads(Path(path or DEFAULT_GOLDEN).read_text())


def _golden_cells(golden: dict[str, Any]) -> list[tuple[str, str, dict, str]]:
    """Distinct (workload, variant, params, label) cells pinned by the
    golden file — deduped across schemes that share a program variant."""
    cells: list[tuple[str, str, dict, str]] = []
    seen: set[tuple[str, str, str]] = set()
    for label, entry in sorted(golden.items()):
        name = entry.get("workload", label)
        params = dict(entry["params"])
        idiom = entry.get("idiom")
        workload = get_workload(name, **params)
        for scheme in sorted(entry["schemes"]):
            variant, __ = scheme_plan(
                workload, scheme,
                idiom if scheme in ("software", "cooperative") else None,
            )
            key = (name, variant, json.dumps(params, sort_keys=True))
            if key in seen:
                continue
            seen.add(key)
            cells.append((name, variant, params, label))
    return cells


def differential_check(
    golden_path: str | Path | None = None,
    machine: str = "small",
    full_stats_sample: int = 2,
    max_steps: int | None = 5_000_000,
    mshr_model: str | None = None,
) -> list[dict[str, Any]]:
    """Engine vs reference-path diff for every golden-pinned cell.

    Every distinct program variant in the golden file gets a lockstep
    committed-instruction stream diff of the table interpreter against
    the reference; the first ``full_stats_sample`` cells also re-run the
    complete timing simulation with the reference interpreter, diffing
    the resulting stats field-by-field against the table run.
    ``mshr_model`` overrides the machine's MSHR model for the stats
    sample (the commit-stream diff is architectural and
    timing-independent).  Returns one row per cell; ``ok`` is False on
    any divergence.
    """
    cfg = get_machine(machine)
    if mshr_model is not None:
        cfg = cfg.with_overrides({"mshr_model": mshr_model})
    rows: list[dict[str, Any]] = []
    sampled = 0
    for name, variant, params, label in _golden_cells(load_golden(golden_path)):
        program = get_workload(name, **params).build(variant).program
        divergence = diff_commit_streams(program, max_steps=max_steps)
        stat_diffs = []
        mode = "stream"
        if divergence is None and sampled < full_stats_sample:
            sampled += 1
            mode = "stream+stats"
            fast = simulate(program, cfg, engine="none", max_steps=max_steps,
                            sim_engine="table")
            ref = reference_simulate(
                program, cfg, engine="none", max_steps=max_steps
            )
            stat_diffs = diff_results(fast, ref, ignore=("telemetry",))
        rows.append({
            "cell": label,
            "variant": variant,
            "mode": mode,
            "ok": divergence is None and not stat_diffs,
            "divergence": divergence.describe() if divergence else "-",
            "stat_diffs": [
                f"{d.path}: {d.a!r} != {d.b!r}" for d in stat_diffs[:8]
            ],
        })
    return rows


# ----------------------------------------------------------------------
# Paper-fidelity gate over the golden cells
# ----------------------------------------------------------------------

def fidelity_gate(
    golden_path: str | Path | None = None,
    machine: str = "small",
) -> list[dict[str, Any]]:
    """Re-run every golden cell and report per-metric drift.

    Output rows name the cell, scheme and metric with the golden value,
    the observed value, and the signed delta — so a regression reads as
    "treeadd/hardware cycles drifted +212 (+1.8%)", not "golden file
    mismatch".  ``ok`` is True only at zero drift (the timing model is
    pinned bit-exact).
    """
    golden = load_golden(golden_path)
    cfg = get_machine(machine)
    rows: list[dict[str, Any]] = []
    for label, entry in sorted(golden.items()):
        entry_cfg = cfg
        if "mshr_model" in entry:
            # Non-blocking pins carry their model next to the params.
            entry_cfg = cfg.with_overrides(
                {"mshr_model": entry["mshr_model"]}
            )
        runner = BenchmarkRunner(
            entry.get("workload", label), entry_cfg, entry["params"]
        )
        idiom = entry.get("idiom")
        for scheme, want in sorted(entry["schemes"].items()):
            run = runner.run(
                scheme,
                idiom if scheme in ("software", "cooperative") else None,
            )
            got = {
                "cycles": run.total,
                "compute": run.compute,
                "instructions": run.result.instructions,
            }
            for metric in GOLDEN_METRICS:
                drift = got[metric] - want[metric]
                if drift == 0:
                    continue
                rows.append({
                    "cell": label,
                    "scheme": scheme,
                    "metric": metric,
                    "golden": want[metric],
                    "observed": got[metric],
                    "drift": f"{drift:+d}"
                    + (f" ({drift / want[metric]:+.2%})" if want[metric] else ""),
                    "ok": False,
                })
    return rows
