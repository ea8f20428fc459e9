"""Sweep execution facade: plans, the executor, and result assembly.

The thin public face of the layered sweep machinery:

* :mod:`repro.harness.cells` — the cell vocabulary (:class:`RunSpec`,
  :class:`CellResult`, the ``run_cell`` worker body, job payloads);
* :mod:`repro.harness.scheduler` — the :class:`Scheduler` policy layer
  (dedup, journal/cache replay, retries/timeouts/backoff, deterministic
  plan-order assembly);
* :mod:`repro.harness.backends` — the two worker backends (serial and
  the local process pool), chosen by ``--jobs``.

:class:`SweepExecutor` *is* the scheduler (a subclass adding nothing),
kept under its historical name because every experiment, spec, CLI
command, and test builds one.  ``jobs=0`` requests cgroup/affinity-aware
CPU auto-detection.

Guarantees:

* **Deterministic ordering** — results are keyed by spec and assembled
  in plan order, so serial and pooled sweeps produce identical rows.
* **Work sharing** — identical cells are planned once; the
  :class:`~repro.harness.cache.ResultCache` extends the sharing across
  processes and sweeps, and a
  :class:`~repro.harness.journal.SweepJournal` checkpoints completed
  cells so an interrupted sweep resumes where it stopped.
* **Error isolation** — a cell that raises becomes an error
  :class:`CellResult` instead of aborting the sweep.
* **Bounded retry, per-cell timeouts, crash recovery, clean
  interruption, narrated progress** — see :class:`Scheduler` and the
  backends for the mechanics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..config import MachineConfig
from ..cpu.stats import SimResult
from ..workloads import get_workload
from .cache import ResultCache
from .cells import (  # noqa: F401  (re-exported)
    CellError,
    CellResult,
    RunSpec,
    SweepError,
    error_row,
    run_cell,
)
from .runner import SchemeRun, scheme_plan
from .scheduler import Progress, Scheduler


class SweepExecutor(Scheduler):
    """The sweep scheduler under its historical public name."""


# ----------------------------------------------------------------------
# Scheme-level planning (what the figure experiments consume)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ScheduledRun:
    """One SchemeRun-to-be: a timing cell plus its compute-time cell."""

    benchmark: str
    scheme: str
    variant: str
    timing: RunSpec
    compute: RunSpec


class SweepPlan:
    """Collects cells for one experiment, then executes them at once.

    ``add_run``/``add_variant_run`` mirror ``BenchmarkRunner.run`` /
    ``run_variant`` but defer execution: each returns a
    :class:`ScheduledRun` handle that resolves to a full
    :class:`~repro.harness.runner.SchemeRun` after :meth:`execute`.
    Compute-time cells (perfect data memory, no engine) are shared across
    schemes of the same program variant by deduplication.
    """

    def __init__(self, cfg: MachineConfig) -> None:
        self.cfg = cfg
        self._specs: list[RunSpec] = []

    def add(self, spec: RunSpec) -> RunSpec:
        self._specs.append(spec)
        return spec

    def add_run(
        self,
        benchmark: str,
        scheme: str,
        params: dict[str, Any] | None = None,
        idiom: str | None = None,
        cfg: MachineConfig | None = None,
        profile: bool = False,
        sim_engine: str | None = None,
        telemetry: bool = False,
    ) -> ScheduledRun:
        cfg = cfg or self.cfg
        workload = get_workload(benchmark, **(params or {}))
        variant, engine = scheme_plan(workload, scheme, idiom)
        return self._schedule(
            benchmark, scheme, variant, engine, params, cfg, profile,
            sim_engine, telemetry,
        )

    def add_variant_run(
        self,
        benchmark: str,
        variant: str,
        engine: str,
        params: dict[str, Any] | None = None,
        cfg: MachineConfig | None = None,
        profile: bool = False,
        sim_engine: str | None = None,
        telemetry: bool = False,
    ) -> ScheduledRun:
        """Arbitrary variant/engine pairing (Figure 4 idiom comparison)."""
        cfg = cfg or self.cfg
        return self._schedule(
            benchmark, f"{engine}:{variant}", variant, engine, params, cfg,
            profile, sim_engine, telemetry,
        )

    def add_table1(
        self,
        benchmark: str,
        params: dict[str, Any] | None = None,
        cfg: MachineConfig | None = None,
        sim_engine: str | None = None,
    ) -> RunSpec:
        return self.add(
            RunSpec.make(
                benchmark, "baseline", "none", cfg or self.cfg, params,
                kind="table1", sim_engine=sim_engine,
            )
        )

    def _schedule(
        self,
        benchmark: str,
        scheme: str,
        variant: str,
        engine: str,
        params: dict[str, Any] | None,
        cfg: MachineConfig,
        profile: bool = False,
        sim_engine: str | None = None,
        telemetry: bool = False,
    ) -> ScheduledRun:
        # Only the timing cell is profiled/telemetered; compute-time cells
        # stay shareable across observed and unobserved experiments.
        timing = self.add(
            RunSpec.make(benchmark, variant, engine, cfg, params,
                         profile=profile, sim_engine=sim_engine,
                         telemetry=telemetry)
        )
        compute = self.add(
            RunSpec.make(benchmark, variant, "none", cfg.perfect(), params,
                         sim_engine=sim_engine)
        )
        return ScheduledRun(benchmark, scheme, variant, timing, compute)

    def execute(
        self,
        jobs: int = 1,
        cache: ResultCache | None = None,
        progress: Progress | None = None,
        executor: SweepExecutor | None = None,
    ) -> "SweepResults":
        """Execute the collected cells.  A fully-configured ``executor``
        (timeout/retry/journal/faults/backend) takes precedence over the
        simple ``jobs``/``cache``/``progress`` shorthand."""
        if executor is None:
            executor = SweepExecutor(jobs=jobs, cache=cache, progress=progress)
        return SweepResults(executor.execute(self._specs))


class SweepResults:
    """Spec-keyed results with SchemeRun assembly."""

    def __init__(self, cells: dict[RunSpec, CellResult]) -> None:
        self.cells = cells

    def cell(self, spec: RunSpec) -> CellResult:
        return self.cells[spec]

    @staticmethod
    def _cell_error(cell: CellResult) -> CellError | None:
        if cell.error is None:
            return None
        return CellError(cell.error, cell.error_kind or "")

    def error(self, run: ScheduledRun | RunSpec) -> CellError | None:
        """The first error among the cells backing ``run`` (None if ok).
        The returned string carries the exception class name as
        ``.kind``, which error rows surface for grepping."""
        if isinstance(run, RunSpec):
            return self._cell_error(self.cells[run])
        return (
            self._cell_error(self.cells[run.timing])
            or self._cell_error(self.cells[run.compute])
        )

    def resolve(
        self, run: ScheduledRun
    ) -> tuple[SchemeRun | None, CellError | None]:
        """(SchemeRun, None) on success, (None, error) on failure."""
        err = self.error(run)
        if err is not None:
            return None, err
        return self.scheme_run(run), None

    def scheme_run(self, run: ScheduledRun) -> SchemeRun:
        """Assemble the SchemeRun for ``run``; raises :class:`SweepError`
        if either backing cell failed."""
        err = self.error(run)
        if err is not None:
            raise SweepError(
                f"{run.benchmark}/{run.scheme} failed:\n{err}"
            )
        timing: SimResult = self.cells[run.timing].result
        compute: SimResult = self.cells[run.compute].result
        return SchemeRun(
            benchmark=run.benchmark,
            scheme=run.scheme,
            variant=run.variant,
            total=timing.cycles,
            compute=compute.cycles,
            result=timing,
        )


__all__ = [
    "CellError",
    "CellResult",
    "Progress",
    "RunSpec",
    "ScheduledRun",
    "Scheduler",
    "SweepError",
    "SweepExecutor",
    "SweepPlan",
    "SweepResults",
    "error_row",
    "run_cell",
]
