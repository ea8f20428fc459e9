"""Experiment harness: scheme runs, spec-driven sweeps, reporting."""

from .backends import WorkerBackend, detect_cpus
from .cache import ResultCache, code_fingerprint, spec_key
from .cells import run_cell, simulate_cell
from .executor import (
    CellError,
    CellResult,
    RunSpec,
    ScheduledRun,
    SweepError,
    SweepExecutor,
    SweepPlan,
    SweepResults,
    error_row,
)
from .experiments import MEMORY_BOUND, figure5_summary
from .reporting import format_table, normalized_bar
from .runner import SCHEMES, SchemeRun
from .schemes import (
    SCHEME_REGISTRY,
    Scheme,
    get_scheme,
    paper_scheme_names,
    register_scheme,
    scheme_names,
    scheme_plan,
)
from .spec import (
    Axis,
    CompiledSpec,
    ExperimentSpec,
    SpecError,
    WorkloadSel,
    compile_spec,
    load_spec,
    run_spec,
    spec_artifact,
)
from .tournament import is_tournament_spec, tournament_summary

__all__ = [
    "Axis",
    "WorkerBackend",
    "detect_cpus",
    "run_cell",
    "simulate_cell",
    "CellError",
    "CellResult",
    "CompiledSpec",
    "ExperimentSpec",
    "ResultCache",
    "Scheme",
    "SCHEME_REGISTRY",
    "SpecError",
    "RunSpec",
    "ScheduledRun",
    "SweepError",
    "SweepExecutor",
    "SweepPlan",
    "SweepResults",
    "WorkloadSel",
    "code_fingerprint",
    "compile_spec",
    "error_row",
    "get_scheme",
    "load_spec",
    "register_scheme",
    "run_spec",
    "paper_scheme_names",
    "scheme_names",
    "spec_artifact",
    "is_tournament_spec",
    "tournament_summary",
    "spec_key",
    "MEMORY_BOUND",
    "SCHEMES",
    "SchemeRun",
    "figure5_summary",
    "format_table",
    "normalized_bar",
    "scheme_plan",
]
