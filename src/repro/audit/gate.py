"""The audit gate: invariant sweeps, differential checks, fidelity drift.

Three entry points, composed by the ``repro audit`` CLI subcommand and
the CI ``audit`` job.  Each names its machine as every command does: a
named machine plus dotted-path overrides (``--machine``/``--set``), and
each plans its cells through :func:`~repro.harness.spec.compile_spec`:

* :func:`audit_workloads` — run every registered workload at its test
  size under every scheme with an :class:`~repro.audit.Auditor`
  attached; any conservation-law violation fails the gate.  A
  :class:`CorruptPlan` (``repro audit --inject-faults``) routes the cells
  it matches through
  :func:`~repro.audit.invariants.corrupt_outcome_tracker` and
  :func:`~repro.audit.invariants.corrupt_mshr_tracker` — the drill
  proving the auditor actually catches mis-classified outcomes and
  skewed MSHR bookkeeping.
* :func:`differential_check` — for every distinct program the golden
  pins run, run the decode-table and reference interpreters in
  lockstep and report the first divergent committed instruction; a
  sample of programs additionally re-runs the full timing simulation on
  the reference path and diffs final stats field-by-field.
* :func:`fidelity_gate` — re-run the golden cells and report per-metric
  drift (golden vs observed, signed delta) instead of a bare mismatch;
  :func:`golden_drift` does it for one pin.

A golden pin is ``{"params", "schemes"}`` plus optional ``workload``,
``idiom`` and ``overrides`` (dotted-path machine overrides applied on
top of the gate's machine; the ``@mshr-*`` pins set the MSHR model).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Any, Iterable, Mapping

from ..config import get_machine
from ..cpu.simulator import simulate
from ..harness.cells import SweepError, simulate_cell
from ..harness.schemes import scheme_names
from ..harness.spec import ExperimentSpec, WorkloadSel, compile_spec, run_spec
from ..obs import Telemetry
from ..workloads import get_workload, workload_names
from .diff import diff_commit_streams, diff_results, reference_simulate
from .invariants import Auditor, corrupt_mshr_tracker, corrupt_outcome_tracker

#: Default golden pin file (the repo's timing contract).
DEFAULT_GOLDEN = Path(__file__).resolve().parents[3] / "tests" / "golden_cycles.json"

#: Metrics the fidelity gate tracks per golden cell.
GOLDEN_METRICS = ("cycles", "compute", "instructions")


@dataclass(frozen=True)
class CorruptPlan:
    """The auditor's drill: which audited cells get a deliberately
    broken outcome tracker.

    Text form: ``benchmark[/variant[/engine]]=corrupt`` entries separated
    by commas.  Each selector part is an ``fnmatch`` glob; omitted or
    empty parts match everything (``em3d//dbp=corrupt``)."""

    selectors: tuple[tuple[str, str, str], ...]

    @classmethod
    def parse(cls, text: str) -> "CorruptPlan":
        selectors = []
        for entry in filter(None, (e.strip() for e in text.split(","))):
            selector, __, kind = entry.partition("=")
            parts = [p.strip() or "*" for p in selector.split("/")]
            if (kind.strip() != "corrupt" or not selector.strip()
                    or len(parts) > 3):
                raise ValueError(
                    f"drill entry {entry!r} is not "
                    "benchmark[/variant[/engine]]=corrupt"
                )
            selectors.append(tuple(parts + ["*"] * (3 - len(parts))))
        if not selectors:
            raise ValueError(f"drill plan {text!r} has no entries")
        return cls(tuple(selectors))

    def matches(self, benchmark: str, variant: str, engine: str) -> bool:
        return any(
            fnmatchcase(benchmark, b) and fnmatchcase(variant, v)
            and fnmatchcase(engine, e)
            for b, v, e in self.selectors
        )

    def describe(self) -> str:
        return ", ".join(f"{'/'.join(sel)}=corrupt" for sel in self.selectors)


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
    drill: CorruptPlan | None = None,
    strict: bool = False,
    overrides: Mapping[str, Any] | None = None,
) -> list[AuditCell]:
    """Sweep the invariant checker over the workload/scheme matrix.

    Workloads run at their quick test sizes on the named machine with
    the dotted-path ``overrides`` applied (a non-blocking MSHR model
    arms the MSHR conservation laws).  Cells matched by the ``drill``
    plan get a deliberately broken outcome tracker and a skewed MSHR
    allocation counter (inert under ``blocking``); with a working
    auditor those cells (and only those) report violations.
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
        telemetry = Telemetry()
        auditor = Auditor(interval=interval, strict=strict)
        corrupted = drill is not None and drill.matches(
            cell.benchmark, cell.variant, cell.engine
        )
        if corrupted:
            # after=0: tiny test-size runs issue few prefetches, so
            # mis-classify from the very first one.
            corrupt_outcome_tracker(telemetry.outcomes, after=0)
            corrupt_mshr_tracker(auditor, after=0)
        simulate_cell(cell, telemetry=telemetry, audit=auditor)
        cells.append(AuditCell(
            benchmark=cell.benchmark, scheme=rp.label, variant=cell.variant,
            engine=cell.engine, checks=auditor.checks,
            violations=list(auditor.violations), corrupted=corrupted,
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
# Paper-fidelity gate over the golden cells
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


def golden_drift(
    label: str, entry: dict[str, Any], machine: str = "small"
) -> list[dict[str, Any]]:
    """Re-run one golden pin (its :func:`golden_spec`) and report its
    per-metric drift.

    Output rows name the cell, scheme and metric with the golden value,
    the observed value, and the signed delta — so a regression reads as
    "treeadd/hardware cycles drifted +212 (+1.8%)", not "golden file
    mismatch".  An empty list means zero drift (the timing model is
    pinned bit-exact).
    """
    rows: list[dict[str, Any]] = []
    for got in run_spec(golden_spec(label, entry, machine)):
        scheme = got["scheme"]
        if "error" in got:
            raise SweepError(
                f"{label}/{scheme} failed:\n{got['error_detail']}"
            )
        want = entry["schemes"][scheme]
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


def fidelity_gate(
    golden_path: str | Path | None = None,
    machine: str = "small",
) -> list[dict[str, Any]]:
    """:func:`golden_drift` over every pin of the golden file."""
    golden = load_golden(golden_path)
    return [row for label, entry in sorted(golden.items())
            for row in golden_drift(label, entry, machine)]
