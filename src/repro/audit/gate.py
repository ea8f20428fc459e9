"""The audit gate: the invariant sweep and the differential check.

Two entry points, composed by the ``repro audit`` CLI subcommand and
the CI ``audit`` and ``mshr-matrix`` jobs.  Both take their programs
from the workload registry, each workload at its test size, so the
audit needs nothing outside the package:

* :func:`audit_workloads` — run every selected workload under every
  selected scheme with an :class:`~repro.audit.Auditor` attached, on a
  named machine plus dotted-path overrides (``--machine``/``--set``),
  its cells planned through :func:`~repro.harness.spec.compile_spec`;
  any conservation-law violation fails the gate.
* :func:`differential_check` — for every variant of the selected
  workloads, run the decode-table and reference interpreters in
  lockstep and report the first divergent committed instruction; a
  sample of programs additionally re-runs the full timing simulation on
  the reference path and diffs final stats field-by-field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from ..config import get_machine
from ..cpu.simulator import simulate
from ..harness.cells import simulate_cell
from ..harness.schemes import scheme_names
from ..harness.spec import ExperimentSpec, WorkloadSel, compile_spec
from ..obs import Telemetry
from ..workloads import workload_class, workload_names
from .diff import diff_commit_streams, diff_results, reference_simulate
from .invariants import Auditor

#: Commits between two invariant sweeps of an audited cell.
AUDIT_INTERVAL = 512


@dataclass
class AuditCell:
    """One audited simulation cell and what the auditor saw."""

    benchmark: str
    scheme: str
    variant: str
    engine: str
    checks: int
    violations: list = field(default_factory=list)

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
        }


def audit_workloads(
    machine: str = "small",
    workloads: Iterable[str] | None = None,
    schemes: Iterable[str] | None = None,
    interval: int = AUDIT_INTERVAL,
    overrides: Mapping[str, Any] | None = None,
) -> list[AuditCell]:
    """Sweep the invariant checker over the workload/scheme matrix.

    Workloads run at their quick test sizes on the named machine with
    the dotted-path ``overrides`` applied (a non-blocking MSHR model
    arms the MSHR conservation laws).
    """
    spec = ExperimentSpec(
        name="audit",
        machine=machine,
        overrides=dict(overrides or {}),
        workloads=tuple(WorkloadSel(name)
                        for name in workloads or workload_names()),
        schemes=tuple(schemes or scheme_names()),
        columns=("scheme",),
    ).small()
    cells: list[AuditCell] = []
    for rp in compile_spec(spec).rows:
        cell = rp.run.timing
        auditor = Auditor(interval=interval)
        simulate_cell(cell, telemetry=Telemetry(), audit=auditor)
        cells.append(AuditCell(
            benchmark=cell.benchmark, scheme=rp.label, variant=cell.variant,
            engine=cell.engine, checks=auditor.checks,
            violations=list(auditor.violations),
        ))
    return cells


def differential_check(
    machine: str = "small",
    workloads: Iterable[str] | None = None,
    full_stats_sample: int = 2,
    max_steps: int | None = 5_000_000,
    overrides: Mapping[str, Any] | None = None,
) -> list[dict[str, Any]]:
    """Engine vs reference-path diff for every variant of the workloads.

    Every variant of each workload (default: all registered), built at
    the workload's test size, gets a lockstep committed-instruction
    stream diff of the table interpreter against the reference; the
    first ``full_stats_sample`` programs also re-run the complete timing
    simulation with the reference interpreter on the named machine with
    ``overrides`` applied, diffing the resulting stats field-by-field
    against the table run (the commit-stream diff is architectural and
    timing-independent).  Returns one row per program; ``ok`` is False
    on any divergence.
    """
    cfg = get_machine(machine).with_overrides(overrides)
    rows: list[dict[str, Any]] = []
    sampled = 0
    for name in workloads or workload_names():
        cls = workload_class(name)
        for variant in cls.variants:
            program = cls(**cls.test_params()).build(variant).program
            divergence = diff_commit_streams(program, max_steps=max_steps)
            stat_diffs = []
            mode = "stream"
            if divergence is None and sampled < full_stats_sample:
                sampled += 1
                mode = "stream+stats"
                fast = simulate(program, cfg, engine="none",
                                max_steps=max_steps)
                ref = reference_simulate(
                    program, cfg, engine="none", max_steps=max_steps
                )
                stat_diffs = diff_results(fast, ref, ignore=("telemetry",))
            rows.append({
                "workload": name,
                "variant": variant,
                "mode": mode,
                "ok": divergence is None and not stat_diffs,
                "divergence": divergence.describe() if divergence else "-",
                "stat_diffs": [
                    f"{d.path}: {d.a!r} != {d.b!r}" for d in stat_diffs[:8]
                ],
            })
    return rows
