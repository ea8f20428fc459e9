"""Worker backends: *where* a sweep's cells run.

The :class:`~repro.harness.executor.SweepExecutor` owns *what* to run
(dedup, cache replay, timeouts, assembly); a :class:`WorkerBackend`
owns *where* it runs.  The executor picks one of two by ``jobs``:

:class:`SerialBackend`
    In-process, one cell at a time — used for ``--jobs 1`` and plans of
    at most one cell.
:class:`ProcessPoolBackend`
    A local ``ProcessPoolExecutor`` fan-out with hung-worker reaping and
    crash recovery.  Each cell travels to its worker as the pickled
    :class:`~repro.harness.cells.RunSpec` itself; workers memoize built
    workload programs across cells.

Backends are stateless and constructed without arguments; everything
they need (jobs, timeout, counters) lives on the executor they are
handed.  A cell that fails, times out or loses its worker becomes an
error cell: cells are deterministic, so running one again would fail
again.

Also here: :func:`detect_cpus`, the cgroup/affinity-aware CPU count
used for ``--jobs 0`` auto-detection — ``os.process_cpu_count()`` where
it exists (3.13+), else the scheduling affinity mask, else
``os.cpu_count()`` — so a 1-CPU CI runner stops oversubscribing.
"""

from __future__ import annotations

import os
import time
import traceback
from collections import OrderedDict, deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from typing import TYPE_CHECKING, Any

from ..workloads import get_workload
from .cells import Attempt, CellResult, RunSpec, run_cell

if TYPE_CHECKING:  # pragma: no cover
    from .executor import SweepExecutor


def detect_cpus() -> int:
    """CPUs actually available to this process (cgroup/affinity-aware).

    ``os.cpu_count()`` reports the machine, not the allowance — on a
    1-CPU CI runner inside a 64-core host it oversubscribes 64x.  Prefer
    ``os.process_cpu_count()`` (3.13+), then the scheduling affinity
    mask, then fall back to the machine count."""
    probe = getattr(os, "process_cpu_count", None)
    if probe is not None:
        try:
            n = probe()
            if n:
                return n
        except OSError:  # pragma: no cover - defensive
            pass
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        pass
    return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Worker-process side: the memoized job entry point
# ----------------------------------------------------------------------

#: Built programs kept per worker process.  A plain module global: each
#: pool worker is its own process, so there is no sharing to guard.
#: Sweeps cycle through a handful of (benchmark, params, variant)
#: combinations; the cap only exists so a pathological many-workload
#: sweep cannot grow without bound.
_worker_programs: "OrderedDict[tuple, Any]" = OrderedDict()
_PROGRAM_MEMO_CAP = 64


def _worker_program(spec: RunSpec) -> Any:
    """The built program for ``spec``, memoized per worker process.

    Safe to reuse across cells: builds are deterministic and
    ``simulate()`` treats the program as read-only."""
    key = (spec.benchmark, spec.params, spec.variant)
    program = _worker_programs.get(key)
    if program is not None:
        _worker_programs.move_to_end(key)
        return program
    workload = get_workload(spec.benchmark, **dict(spec.params))
    program = workload.build(spec.variant).program
    _worker_programs[key] = program
    while len(_worker_programs) > _PROGRAM_MEMO_CAP:
        _worker_programs.popitem(last=False)
    return program


def _pool_run_job(spec: RunSpec) -> tuple[str, ...]:
    """Pool-worker job entry: run the cell, building its program through
    the per-worker memo."""
    return run_cell(spec, program_factory=lambda: _worker_program(spec))


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------

class WorkerBackend:
    """Executes the executor's remaining cells.  ``run`` must account
    every cell of ``todo`` into ``results`` (ok or error), using the
    executor's finish/fail/counter machinery, and return the updated
    ``done`` count."""

    def run(
        self,
        sched: "SweepExecutor",
        todo: list[RunSpec],
        results: dict[RunSpec, CellResult],
        done: int,
        total: int,
    ) -> int:
        raise NotImplementedError


class SerialBackend(WorkerBackend):
    """In-process execution, one cell at a time."""

    def run(
        self,
        sched: "SweepExecutor",
        todo: list[RunSpec],
        results: dict[RunSpec, CellResult],
        done: int,
        total: int,
    ) -> int:
        for spec in todo:
            sched._c_executed.inc()
            start = time.monotonic()
            out = run_cell(spec)
            elapsed = time.monotonic() - start
            if out[0] == "ok" and (
                sched.timeout is None or elapsed <= sched.timeout
            ):
                done += 1
                results[spec] = sched._finish(
                    CellResult(spec, out[1]), done, total
                )
                continue
            if out[0] == "ok":
                # Completed, but past the wall-clock budget: a pool
                # would have reaped it — charge a timeout for
                # serial/parallel parity.
                sched._c_timeouts.inc()
                kind, tb = "TimeoutError", (
                    f"TimeoutError: cell exceeded --timeout "
                    f"{sched.timeout}s (took {elapsed:.2f}s)"
                )
            else:
                kind, tb = out[1], out[2]
            done = sched._fail(spec, kind, tb, results, done, total)
        return done


class ProcessPoolBackend(WorkerBackend):
    """Local ``ProcessPoolExecutor`` fan-out with per-cell deadlines,
    hung-worker reaping (pool abandonment), and crash recovery."""

    @staticmethod
    def _abandon_pool(pool: ProcessPoolExecutor) -> None:
        """Shut a pool down without waiting on hung/dead workers: cancel
        everything not started, then terminate the worker processes."""
        # Snapshot the worker processes before shutdown clears the map.
        procs = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in procs:
            try:
                proc.terminate()
            except Exception:
                pass
        for proc in procs:
            try:
                proc.join(timeout=1.0)
            except Exception:
                pass

    def run(
        self,
        sched: "SweepExecutor",
        todo: list[RunSpec],
        results: dict[RunSpec, CellResult],
        done: int,
        total: int,
    ) -> int:
        queue: deque[Attempt] = deque(Attempt(spec) for spec in todo)
        while queue:
            max_inflight = min(sched.jobs, len(queue))
            pool = ProcessPoolExecutor(max_workers=max_inflight)
            abandon = False
            try:
                running: dict[Any, Attempt] = {}
                broken = False

                def submit(item: Attempt) -> None:
                    sched._c_executed.inc()
                    if sched.timeout is not None:
                        item.deadline = time.monotonic() + sched.timeout
                    fut = pool.submit(_pool_run_job, item.spec)
                    running[fut] = item

                def refill() -> None:
                    # Keep at most one cell per worker in flight, so a
                    # deadline measures *run* time: a cell parked in the
                    # pool's internal queue must not burn its budget.
                    while queue and not broken and len(running) < max_inflight:
                        submit(queue.popleft())

                refill()
                while running:
                    wait_for = None
                    if sched.timeout is not None:
                        wait_for = max(
                            0.0,
                            min(i.deadline for i in running.values())
                            - time.monotonic(),
                        )
                    finished, __ = wait(
                        set(running), timeout=wait_for,
                        return_when=FIRST_COMPLETED,
                    )
                    if not finished:
                        # A deadline expired with nothing completing:
                        # the worker is hung.  Its process cannot be
                        # recovered individually, so fail the timed-out
                        # cells, requeue the innocent bystanders
                        # untouched, and abandon the pool.
                        now = time.monotonic()
                        expired = [
                            fut for fut, item in running.items()
                            if item.deadline is not None
                            and item.deadline <= now
                        ]
                        if not expired:
                            continue
                        for fut in expired:
                            item = running.pop(fut)
                            sched._c_timeouts.inc()
                            tb = (
                                f"TimeoutError: cell exceeded --timeout "
                                f"{sched.timeout}s; hung worker terminated"
                            )
                            done = sched._fail(
                                item.spec, "TimeoutError", tb,
                                results, done, total,
                            )
                        for item in running.values():
                            queue.append(item)
                        sched._c_pool_breaks.inc()
                        abandon = True
                        break
                    for fut in finished:
                        item = running.pop(fut)
                        try:
                            out = fut.result()
                        except BrokenExecutor:
                            # A worker died; every in-flight future of
                            # this pool fails with it and the victims are
                            # indistinguishable, so each becomes an error
                            # cell.  Rebuild the pool afterwards.
                            if not broken:
                                sched._c_pool_breaks.inc()
                                broken = True
                            done = sched._fail(
                                item.spec, "BrokenProcessPool",
                                traceback.format_exc(),
                                results, done, total,
                            )
                            continue
                        except Exception as exc:
                            # The cell or its result failed to pickle
                            # (or another local fault); isolate it as an
                            # error of this cell only.
                            done = sched._fail(
                                item.spec, type(exc).__name__,
                                traceback.format_exc(),
                                results, done, total,
                            )
                            continue
                        if out[0] == "ok":
                            done += 1
                            results[item.spec] = sched._finish(
                                CellResult(item.spec, out[1]), done, total,
                            )
                        else:
                            done = sched._fail(
                                item.spec, out[1], out[2],
                                results, done, total,
                            )
                    # Waiting cells go to the current pool while it is
                    # healthy.
                    refill()
                    if broken:
                        for item in running.values():
                            queue.append(item)
                        abandon = True
                        break
            except BaseException:
                # KeyboardInterrupt (or any unexpected error) must not
                # leave orphaned workers: cancel pending futures and
                # tear the pool down before propagating.
                self._abandon_pool(pool)
                raise
            else:
                if abandon:
                    self._abandon_pool(pool)
                else:
                    pool.shutdown(wait=True)
        return done


__all__ = [
    "ProcessPoolBackend",
    "SerialBackend",
    "WorkerBackend",
    "detect_cpus",
]
