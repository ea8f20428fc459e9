"""Sweep execution: plans, the executor, and result assembly.

:class:`SweepExecutor` is the one handle on a sweep.  It owns
everything a worker backend must not reinvent:

* **Plan hygiene** — deduplication preserving first-seen order, so
  identical cells are computed once and results assemble in plan order
  whatever the backend's completion order: serial and pooled sweeps
  produce identical rows.
* **Replay** — the content-addressed
  :class:`~repro.harness.cache.ResultCache`, consulted before any
  worker sees a cell.  It stores every cell, so rerunning an
  interrupted sweep against the same cache executes only the cells the
  first run did not finish: resuming is just running again.  A cache
  that cannot be written (read-only, full, not a directory) is counted
  and logged; the sweep keeps its results.
* **Failure accounting** — a cell that raises or loses its worker
  becomes an error :class:`CellResult` (:meth:`SweepExecutor._fail`)
  instead of aborting the sweep.  A program that never halts raises too,
  once the interpreter's instruction budget runs out.  Cells are
  deterministic, so a failed cell is reported rather than retried.
* **Narrated progress**, one line per finished cell.

The layers it stands on:

* :mod:`repro.harness.cells` — the cell vocabulary (:class:`RunSpec`,
  :class:`CellResult`, :func:`simulate_cell` and its ``run_cell``
  worker wrapper);
* :mod:`repro.harness.backends` — *where* a cell runs: serially for
  ``jobs=1`` or a one-cell plan, else the local process pool.

:class:`SweepPlan` collects an experiment's cells and
:class:`SweepResults` assembles them back into
:class:`~repro.harness.runner.SchemeRun` rows.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from ..config import MachineConfig
from ..cpu.stats import SimResult
from ..workloads import get_workload
from .backends import (
    ProcessPoolBackend,
    SerialBackend,
    WorkerBackend,
    detect_cpus,
)
from .cache import ResultCache
from .cells import (  # noqa: F401  (re-exported)
    CellError,
    CellResult,
    RunSpec,
    SweepError,
    error_row,
    run_cell,
)
from .runner import SchemeRun
from .schemes import scheme_plan

Progress = Callable[[str], None]

logger = logging.getLogger(__name__)


class SweepExecutor:
    """Executes a deduplicated list of cells through a worker backend,
    serving cached cells first.

    ``jobs=0`` requests cgroup/affinity-aware CPU auto-detection.  Tests
    may inject any :class:`~repro.harness.backends.WorkerBackend`
    instance through ``backend=``."""

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | None = None,
        progress: Progress | None = None,
        *,
        backend: WorkerBackend | None = None,
    ) -> None:
        self.jobs = detect_cpus() if jobs == 0 else max(1, jobs)
        self.cache = cache
        self.progress = progress
        self.backend = backend
        #: cells computed by a worker this sweep
        self.executed = 0
        #: cells that finished as errors
        self.failures = 0
        #: worker pools abandoned after a worker crash
        self.pool_breaks = 0

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    def _narrate(self, done: int, total: int, cell: CellResult) -> None:
        if self.progress is None:
            return
        if not cell.ok:
            status = "ERROR"
        elif cell.cached:
            status = "cache hit"
        else:
            status = f"{cell.result.cycles} cycles"
        self.progress(f"[{done}/{total}] {cell.spec.describe()}: {status}")

    def _finish(self, cell: CellResult, done: int, total: int) -> CellResult:
        cache = self.cache
        if cache is not None and cell.ok and not cell.cached:
            try:
                cache.put(cell.spec, cell.result)
            except OSError as exc:
                # An unwritable cache costs only the reuse: keep the
                # result and warn once (put counted the error).
                if cache.write_errors == 1:
                    logger.warning(
                        "result cache at %s is not writable (%s: %s); "
                        "results are kept but not stored",
                        cache.root, type(exc).__name__, exc,
                    )
        self._narrate(done, total, cell)
        return cell

    def _record(
        self,
        spec: RunSpec,
        out: tuple[str, ...],
        results: dict[RunSpec, CellResult],
        done: int,
        total: int,
    ) -> int:
        """Record ``spec``'s :func:`run_cell` outcome (``("ok", result)``
        or ``("error", kind, traceback)``); returns the new ``done``."""
        if out[0] != "ok":
            return self._fail(spec, out[1], out[2], results, done, total)
        done += 1
        results[spec] = self._finish(CellResult(spec, out[1]), done, total)
        return done

    def _fail(
        self,
        spec: RunSpec,
        kind: str,
        tb: str,
        results: dict[RunSpec, CellResult],
        done: int,
        total: int,
    ) -> int:
        """Record ``spec``'s final error cell; returns the new ``done``."""
        self.failures += 1
        done += 1
        results[spec] = self._finish(
            CellResult(spec, None, error=tb, error_kind=kind), done, total,
        )
        return done

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _resolve_backend(self, todo: list[RunSpec]) -> WorkerBackend:
        """An injected ``backend=`` instance wins; otherwise serial for
        ``--jobs 1`` or trivial plans, the local process pool else."""
        if self.backend is not None:
            return self.backend
        if self.jobs == 1 or len(todo) <= 1:
            return SerialBackend()
        return ProcessPoolBackend()

    def execute(self, specs: Iterable[RunSpec]) -> dict[RunSpec, CellResult]:
        """Run every distinct spec; returns ``spec -> CellResult``."""
        plan: list[RunSpec] = []
        seen: set[RunSpec] = set()
        for spec in specs:
            if spec not in seen:
                seen.add(spec)
                plan.append(spec)

        results: dict[RunSpec, CellResult] = {}
        todo: list[RunSpec] = []
        cache = self.cache
        for spec in plan:
            cached = cache.get(spec) if cache is not None else None
            if cached is not None:
                results[spec] = CellResult(spec, cached, cached=True)
            else:
                todo.append(spec)

        total = len(plan)
        done = 0
        for cell in results.values():
            done += 1
            self._narrate(done, total, cell)

        if todo:
            done = self._resolve_backend(todo).run(
                self, todo, results, done, total
            )

        # Every planned cell must be accounted for: a backend that lost
        # cells would otherwise surface as a KeyError deep inside row
        # assembly.
        missing = [spec for spec in plan if spec not in results]
        for spec in missing:
            done = self._fail(
                spec, "BackendError",
                "BackendError: backend returned no result for cell",
                results, done, total,
            )
        return results

    # ------------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        return {
            "executed": self.executed,
            "failures": self.failures,
            "pool_breaks": self.pool_breaks,
        }

    def describe(self) -> str:
        s = self.stats()
        return (
            f"sweep: {s['executed']} cells executed, "
            f"{s['failures']} failures, {s['pool_breaks']} pool restarts"
        )


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

    ``add_run`` plans a registered scheme and ``add_variant_run`` pairs
    any program variant with any engine; both defer execution and
    return a :class:`ScheduledRun` handle that resolves to a full
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

    def cells(self) -> list[RunSpec]:
        """The distinct cells, in the order they were first planned."""
        return list(dict.fromkeys(self._specs))

    def add_run(
        self,
        benchmark: str,
        scheme: str,
        params: dict[str, Any] | None = None,
        idiom: str | None = None,
        cfg: MachineConfig | None = None,
        profile: bool = False,
        telemetry: bool = False,
    ) -> ScheduledRun:
        cfg = cfg or self.cfg
        workload = get_workload(benchmark, **(params or {}))
        variant, engine = scheme_plan(workload, scheme, idiom)
        return self._schedule(
            benchmark, scheme, variant, engine, params, cfg, profile,
            telemetry,
        )

    def add_variant_run(
        self,
        benchmark: str,
        variant: str,
        engine: str,
        params: dict[str, Any] | None = None,
        cfg: MachineConfig | None = None,
        profile: bool = False,
        telemetry: bool = False,
    ) -> ScheduledRun:
        """Arbitrary variant/engine pairing (Figure 4 idiom comparison)."""
        cfg = cfg or self.cfg
        return self._schedule(
            benchmark, f"{engine}:{variant}", variant, engine, params, cfg,
            profile, telemetry,
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
        telemetry: bool = False,
    ) -> ScheduledRun:
        # Only the timing cell is profiled/telemetered; compute-time cells
        # stay shareable across observed and unobserved experiments.
        timing = self.add(
            RunSpec.make(benchmark, variant, engine, cfg, params,
                         profile=profile, telemetry=telemetry)
        )
        compute = self.add(
            RunSpec.make(benchmark, variant, "none", cfg.perfect(), params)
        )
        return ScheduledRun(benchmark, scheme, variant, timing, compute)

    def execute(self, executor: SweepExecutor | None = None) -> "SweepResults":
        """Execute the collected cells (serially, uncached, without an
        ``executor``)."""
        return SweepResults((executor or SweepExecutor()).execute(self._specs))


class SweepResults:
    """Spec-keyed results with SchemeRun assembly."""

    def __init__(self, cells: dict[RunSpec, CellResult]) -> None:
        self.cells = cells

    @staticmethod
    def _cell_error(cell: CellResult) -> CellError | None:
        if cell.error is None:
            return None
        return CellError(cell.error, cell.error_kind or "")

    def error(self, run: ScheduledRun) -> CellError | None:
        """The first error among the cells backing ``run`` (None if ok).
        The returned string carries the exception class name as
        ``.kind``, which error rows surface for grepping."""
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
    "SweepError",
    "SweepExecutor",
    "SweepPlan",
    "SweepResults",
    "error_row",
    "run_cell",
]
