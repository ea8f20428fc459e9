"""Simulation auditing: invariants, differential validation, fidelity.

Layers usable separately; the ``repro audit`` CLI drives the first three:

* :mod:`repro.audit.invariants` — the opt-in runtime :class:`Auditor`
  that sweeps conservation laws (outcome classification, cache-access
  accounting, queue capacities, monotone clocks) every N commits of one
  simulation.
* :mod:`repro.audit.diff` — a deliberately-naive
  :class:`ReferenceInterpreter` plus lockstep commit-stream and
  field-by-field stats diffing against the decode-table fast path.
* :mod:`repro.audit.gate` — the ``repro audit`` entry points: the
  invariant sweep over the workload/scheme matrix and the differential
  check over the golden-pinned programs.
* :mod:`repro.audit.paper_targets` — the paper's headline numbers as
  machine-readable targets with tolerance bands.
* :mod:`repro.audit.bench` — the ``repro bench-diff`` comparator:
  signed per-metric drift between two ``BENCH_LAYERS.json``
  layer-budget reports under exact/lower/info tolerance rules (the CI
  perf-regression gate).
"""

from .bench import (
    BenchRule,
    DEFAULT_RULES,
    compare_benchmarks,
    flatten_report,
    regressions,
)
from .diff import (
    Divergence,
    FieldDiff,
    ReferenceInterpreter,
    diff_commit_streams,
    diff_results,
    reference_simulate,
)
from .gate import (
    AuditCell,
    audit_workloads,
    differential_check,
    load_golden,
)
from .invariants import (
    AuditError,
    Auditor,
    AuditViolation,
)
from .paper_targets import (
    FIGURE5_TARGETS,
    TABLE1_TARGETS,
    PaperTarget,
    all_targets,
    evaluate_targets,
    figure5_observations,
    table1_observations,
)

__all__ = [
    "AuditCell",
    "AuditError",
    "Auditor",
    "AuditViolation",
    "BenchRule",
    "DEFAULT_RULES",
    "Divergence",
    "FieldDiff",
    "FIGURE5_TARGETS",
    "PaperTarget",
    "ReferenceInterpreter",
    "TABLE1_TARGETS",
    "all_targets",
    "audit_workloads",
    "compare_benchmarks",
    "diff_commit_streams",
    "diff_results",
    "differential_check",
    "evaluate_targets",
    "figure5_observations",
    "flatten_report",
    "load_golden",
    "reference_simulate",
    "regressions",
    "table1_observations",
]
