"""The sweep scheduler: plan → dispatch → assemble.

:class:`Scheduler` is the policy layer of sweep execution.  It owns
everything a backend must not reinvent:

* **Plan hygiene** — deduplication preserving first-seen order, so
  identical cells are computed once and results assemble in plan order
  whatever the backend's completion order.
* **Replay** — the content-addressed result cache, consulted before any
  worker sees a cell.  It stores every cell kind, so rerunning an
  interrupted sweep against the same cache executes only the cells the
  first run did not finish: resuming is just running again.
* **Failure accounting** — timeout and final-failure recording
  (:meth:`_fail`).  Cells are deterministic, so a failed cell is
  reported as an error row rather than retried.
* **Persistence** — a cache write per completed cell (:meth:`_finish`),
  and narrated progress.

The mechanics of *where* a cell runs live in
:mod:`repro.harness.backends`; the scheduler runs ``serial`` for
``--jobs 1`` or trivial plans, else the local process pool, and hands
itself over.  Tests may inject any :class:`WorkerBackend` instance
through ``backend=``.

:class:`~repro.harness.executor.SweepExecutor` is the historical name
for this class and remains the public entry point.
"""

from __future__ import annotations

from typing import Callable, Iterable

from ..obs import MetricRegistry
from .backends import (
    ProcessPoolBackend,
    SerialBackend,
    WorkerBackend,
    detect_cpus,
)
from .cache import ResultCache
from .cells import CellResult, RunSpec

Progress = Callable[[str], None]


class Scheduler:
    """Executes a deduplicated list of cells through a worker backend,
    serving cached cells first, with an optional per-cell timeout."""

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | None = None,
        progress: Progress | None = None,
        *,
        timeout: float | None = None,
        registry: MetricRegistry | None = None,
        backend: WorkerBackend | None = None,
    ) -> None:
        # jobs == 0 requests auto-detection (cgroup/affinity-aware).
        self.jobs = detect_cpus() if jobs == 0 else max(1, jobs)
        self.cache = cache
        self.progress = progress
        self.timeout = timeout
        self.backend = backend
        self.registry = (
            registry
            or (cache.registry if cache is not None else None)
            or MetricRegistry()
        )
        reg = self.registry
        self._c_timeouts = reg.counter(
            "sweep.timeouts", help="cells that overran the timeout"
        )
        self._c_failures = reg.counter(
            "sweep.failures", help="cells that finished as errors"
        )
        self._c_pool_breaks = reg.counter(
            "sweep.pool_breaks",
            help="worker pools abandoned after a crash or hung worker",
        )
        self._c_executed = reg.counter(
            "sweep.executed", help="cells computed by a worker this sweep"
        )

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
        elif cell.spec.kind == "sim":
            status = f"{cell.result.cycles} cycles"
        else:
            status = "done"
        self.progress(f"[{done}/{total}] {cell.spec.describe()}: {status}")

    def _finish(self, cell: CellResult, done: int, total: int) -> CellResult:
        cache = self.cache
        if cache is not None and cell.ok and not cell.cached:
            cache.put(cell.spec, cell.result)
            cache.note_write()
        self._narrate(done, total, cell)
        return cell

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
        self._c_failures.inc()
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
            "executed": self._c_executed.value,
            "timeouts": self._c_timeouts.value,
            "failures": self._c_failures.value,
            "pool_breaks": self._c_pool_breaks.value,
        }

    def describe(self) -> str:
        s = self.stats()
        return (
            f"sweep: {s['executed']} cells executed, "
            f"{s['timeouts']} timeouts, {s['failures']} failures, "
            f"{s['pool_breaks']} pool restarts"
        )


__all__ = [
    "Progress",
    "Scheduler",
]
