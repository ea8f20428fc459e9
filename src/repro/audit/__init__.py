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
  check over every variant of the selected workloads.
* :mod:`repro.audit.paper_targets` — the paper's Figure-5 averages as
  machine-readable targets with tolerance bands.
"""

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
)
from .invariants import (
    AuditError,
    Auditor,
    AuditViolation,
)
from .paper_targets import (
    FIGURE5_TARGETS,
    PaperTarget,
    evaluate_targets,
    figure5_observations,
)

__all__ = [
    "AuditCell",
    "AuditError",
    "Auditor",
    "AuditViolation",
    "Divergence",
    "FieldDiff",
    "FIGURE5_TARGETS",
    "PaperTarget",
    "ReferenceInterpreter",
    "audit_workloads",
    "diff_commit_streams",
    "diff_results",
    "differential_check",
    "evaluate_targets",
    "figure5_observations",
    "reference_simulate",
]
