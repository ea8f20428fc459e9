"""The audit gate: the invariant sweep and the differential check.

Two entry points, composed by the ``repro audit`` CLI subcommand and
the CI ``audit`` and ``mshr-matrix`` jobs.  Each names its machine as
every command does: a named machine plus dotted-path overrides
(``--machine``/``--set``), and each plans its cells through
:func:`~repro.harness.spec.compile_spec`:

* :func:`audit_workloads` — run every registered workload at its test
  size under every scheme with an :class:`~repro.audit.Auditor`
  attached; any conservation-law violation fails the gate.
* :func:`differential_check` — for every distinct program the golden
  pins run, run the decode-table and reference interpreters in
  lockstep and report the first divergent committed instruction; a
  sample of programs additionally re-runs the full timing simulation on
  the reference path and diffs final stats field-by-field.

A golden pin is ``{"params", "schemes"}`` plus optional ``workload``,
``idiom`` and ``overrides`` (dotted-path machine overrides applied on
top of the machine; the ``@mshr-*`` pins set the MSHR model).
:func:`golden_spec` turns one pin into the experiment spec that
``tests/test_golden_cycles.py`` re-runs bit-exactly on ``small``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

from ..config import get_machine
from ..cpu.simulator import simulate
from ..harness.cells import simulate_cell
from ..harness.schemes import scheme_names
from ..harness.spec import ExperimentSpec, WorkloadSel, compile_spec
from ..obs import Telemetry
from ..workloads import get_workload, workload_names
from .diff import diff_commit_streams, diff_results, reference_simulate
from .invariants import Auditor

#: Default golden pin file (the repo's timing contract).
DEFAULT_GOLDEN = Path(__file__).resolve().parents[3] / "tests" / "golden_cycles.json"

#: Commits between two invariant sweeps of an audited cell.
AUDIT_INTERVAL = 512

#: Metrics a golden pin fixes per cell.
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


# ----------------------------------------------------------------------
# Differential validation over the golden-pinned programs
# ----------------------------------------------------------------------

def load_golden(path: str | Path | None = None) -> dict[str, Any]:
    return json.loads(Path(path or DEFAULT_GOLDEN).read_text())


def differential_check(
    golden_path: str | Path | None = None,
    machine: str = "small",
    full_stats_sample: int = 2,
    max_steps: int | None = 5_000_000,
    overrides: Mapping[str, Any] | None = None,
) -> list[dict[str, Any]]:
    """Engine vs reference-path diff for every golden-pinned program.

    Every distinct program the golden pins run (their
    :func:`golden_spec` timing cells, deduplicated across schemes that
    share a variant) gets a lockstep committed-instruction stream diff
    of the table interpreter against the reference; the first
    ``full_stats_sample`` programs also re-run the complete timing
    simulation with the reference interpreter on the named machine with
    ``overrides`` applied, diffing the resulting stats field-by-field
    against the table run (the commit-stream diff is architectural and
    timing-independent).  Returns one row per program; ``ok`` is False
    on any divergence.
    """
    cfg = get_machine(machine).with_overrides(overrides)
    programs: dict[tuple, str] = {}
    for label, entry in sorted(load_golden(golden_path).items()):
        for rp in compile_spec(golden_spec(label, entry, machine)).rows:
            cell = rp.run.timing
            programs.setdefault((cell.benchmark, cell.variant, cell.params),
                                label)
    rows: list[dict[str, Any]] = []
    sampled = 0
    for (name, variant, params), label in programs.items():
        program = get_workload(name, **dict(params)).build(variant).program
        divergence = diff_commit_streams(program, max_steps=max_steps)
        stat_diffs = []
        mode = "stream"
        if divergence is None and sampled < full_stats_sample:
            sampled += 1
            mode = "stream+stats"
            fast = simulate(program, cfg, engine="none", max_steps=max_steps)
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
# One golden pin as a spec
# ----------------------------------------------------------------------

def golden_spec(
    label: str, entry: dict[str, Any], machine: str = "small"
) -> ExperimentSpec:
    """One golden pin as a one-workload experiment spec, its ``idiom``
    and ``overrides`` included, so it runs the same cells as
    ``run-spec``."""
    return ExperimentSpec(
        name=f"golden-{label}",
        machine=machine,
        overrides=dict(entry.get("overrides", {})),
        workloads=(WorkloadSel(entry.get("workload", label),
                               params=dict(entry["params"]),
                               idiom=entry.get("idiom")),),
        schemes=tuple(sorted(entry["schemes"])),
        columns=("scheme",) + GOLDEN_METRICS,
    )
