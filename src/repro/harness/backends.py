"""Worker backends for the sweep scheduler.

The :class:`~repro.harness.scheduler.Scheduler` owns *what* to run
(dedup, replay, retries, timeouts, assembly); a :class:`WorkerBackend`
owns *where* it runs.  The scheduler picks one of two by ``--jobs``:

:class:`SerialBackend`
    In-process, one cell at a time — used for ``--jobs 1`` and plans of
    at most one cell.
:class:`ProcessPoolBackend`
    A local ``ProcessPoolExecutor`` fan-out with hung-worker reaping and
    crash recovery, with cheap dispatch: each distinct
    :class:`~repro.config.MachineConfig` ships once through the pool
    initializer (keyed by :func:`config_id`) and cells travel as small
    JSON payloads referencing it; workers memoize materialized configs
    and built workload programs across cells.

Backends are stateless and constructed without arguments; everything
they need (jobs, timeout, retries, fault plan, counters) lives on the
scheduler they are handed.

Also here: :func:`detect_cpus`, the cgroup/affinity-aware CPU count
used for ``--jobs 0`` auto-detection — ``os.process_cpu_count()`` where
it exists (3.13+), else the scheduling affinity mask, else
``os.cpu_count()`` — so a 1-CPU CI runner stops oversubscribing.
"""

from __future__ import annotations

import hashlib
import json
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

from ..config import MachineConfig
from ..errors import ReproError
from ..workloads import get_workload
from .cells import Attempt, CellResult, RunSpec, job_payload, run_cell, spec_from_payload
from .faults import FaultPlan, mark_pool_worker

if TYPE_CHECKING:  # pragma: no cover
    from .scheduler import Scheduler


class BackendError(ReproError):
    """A worker backend was misconfigured or could not run a cell."""


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


def config_id(cfg: MachineConfig) -> str:
    """Content address of one machine config (SHA-256 over its canonical
    dict) — the reference cells travel with instead of the config."""
    blob = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def dispatch_tables(
    todo: list[RunSpec],
) -> tuple[dict[str, dict[str, Any]], dict[RunSpec, dict[str, Any]]]:
    """The two sides of by-reference dispatch: ``config_id -> config
    dict`` (shipped once) and ``spec -> job payload`` (shipped per
    cell)."""
    configs: dict[str, dict[str, Any]] = {}
    payloads: dict[RunSpec, dict[str, Any]] = {}
    for spec in todo:
        cid = config_id(spec.cfg)
        if cid not in configs:
            configs[cid] = spec.cfg.to_dict()
        payloads[spec] = job_payload(spec, cid)
    return configs, payloads


# ----------------------------------------------------------------------
# Worker-process side: initializer + memoized job entry point
# ----------------------------------------------------------------------

#: Per-worker-process state, populated by :func:`_init_pool_worker`
#: and the lazy memos below.  Plain module globals: each pool worker is
#: its own process, so there is no sharing to guard.
_worker_config_raw: dict[str, dict[str, Any]] = {}
_worker_configs: dict[str, MachineConfig] = {}
_worker_faults: FaultPlan | None = None
_worker_programs: "OrderedDict[tuple, Any]" = OrderedDict()

#: Built programs kept per worker.  Sweeps cycle through a handful of
#: (benchmark, params, variant) combinations; the cap only exists so a
#: pathological many-workload sweep cannot grow without bound.
_PROGRAM_MEMO_CAP = 64


def _init_pool_worker(
    config_table: dict[str, dict[str, Any]] | None = None,
    faults: FaultPlan | None = None,
) -> None:
    """ProcessPoolExecutor initializer: mark the process expendable (for
    ``crash`` faults) and seed the config table + fault plan once,
    instead of pickling them into every cell."""
    mark_pool_worker()
    if config_table:
        _worker_config_raw.update(config_table)
    global _worker_faults
    _worker_faults = faults


def _worker_config(cid: str) -> MachineConfig:
    """Materialize (and memoize) the config ``cid`` references."""
    cfg = _worker_configs.get(cid)
    if cfg is None:
        raw = _worker_config_raw.get(cid)
        if raw is None:
            raise BackendError(f"job references unknown config {cid[:12]}…")
        cfg = MachineConfig.from_dict(raw)
        _worker_configs[cid] = cfg
    return cfg


def _worker_program(spec: RunSpec) -> Any:
    """The built program for ``spec``, memoized per worker process.

    Safe to reuse across cells: builds are deterministic and
    ``simulate()`` treats the program as read-only (the in-process
    :class:`~repro.harness.runner.BenchmarkRunner` has always reused
    built variants the same way)."""
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


def _pool_run_job(payload: dict[str, Any], attempt: int = 0) -> tuple[str, ...]:
    """Pool-worker job entry: reconstruct the cell from its compact
    payload (config by reference, program via the per-worker memo) and
    run it under the fault plan the initializer seeded."""
    try:
        spec = spec_from_payload(payload, _worker_config(payload["config"]))
    except Exception as exc:
        return ("error", type(exc).__name__, traceback.format_exc())
    return run_cell(spec, attempt, _worker_faults,
                    program_factory=lambda: _worker_program(spec))


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------

class WorkerBackend:
    """Executes the scheduler's remaining cells.  ``run`` must account
    every cell of ``todo`` into ``results`` (ok or error), using the
    scheduler's retry/finish/counter machinery, and return the updated
    ``done`` count."""

    def run(
        self,
        sched: "Scheduler",
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
        sched: "Scheduler",
        todo: list[RunSpec],
        results: dict[RunSpec, CellResult],
        done: int,
        total: int,
    ) -> int:
        for spec in todo:
            attempt = 0
            while True:
                sched._note_injection(spec, attempt)
                sched._c_executed.inc()
                start = time.monotonic()
                out = run_cell(spec, attempt, sched.faults)
                elapsed = time.monotonic() - start
                if out[0] == "ok" and (
                    sched.timeout is None or elapsed <= sched.timeout
                ):
                    done += 1
                    results[spec] = sched._finish(
                        CellResult(spec, out[1], attempts=attempt + 1),
                        done, total,
                    )
                    break
                if out[0] == "ok":
                    # Completed, but past the wall-clock budget: a pool
                    # would have reaped it — charge a timeout attempt
                    # for serial/parallel parity.
                    sched._c_timeouts.inc()
                    kind, tb = "TimeoutError", (
                        f"TimeoutError: cell exceeded --timeout "
                        f"{sched.timeout}s (took {elapsed:.2f}s)"
                    )
                else:
                    kind, tb = out[1], out[2]
                if attempt < sched.retries:
                    sched._c_retries.inc()
                    sched._sleep(sched._backoff_delay(attempt))
                    attempt += 1
                    continue
                sched._c_failures.inc()
                done += 1
                results[spec] = sched._finish(
                    CellResult(spec, None, error=tb, error_kind=kind,
                               attempts=attempt + 1),
                    done, total,
                )
                break
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
        sched: "Scheduler",
        todo: list[RunSpec],
        results: dict[RunSpec, CellResult],
        done: int,
        total: int,
    ) -> int:
        config_table, payloads = dispatch_tables(todo)
        queue: deque[Attempt] = deque(Attempt(spec) for spec in todo)
        while queue:
            max_inflight = min(sched.jobs, len(queue))
            pool = ProcessPoolExecutor(
                max_workers=max_inflight,
                initializer=_init_pool_worker,
                initargs=(config_table, sched.faults),
            )
            abandon = False
            try:
                running: dict[Any, Attempt] = {}
                broken = False

                def submit(item: Attempt) -> None:
                    sched._note_injection(item.spec, item.attempt)
                    sched._c_executed.inc()
                    if sched.timeout is not None:
                        item.deadline = time.monotonic() + sched.timeout
                    fut = pool.submit(
                        _pool_run_job, payloads[item.spec], item.attempt
                    )
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
                        # recovered individually, so charge the timed-out
                        # cells an attempt, requeue the innocent
                        # bystanders untouched, and abandon the pool.
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
                                f"{sched.timeout}s "
                                f"(attempt {item.attempt + 1}); "
                                "hung worker terminated"
                            )
                            done = sched._fail_or_requeue(
                                item, "TimeoutError", tb, queue,
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
                            # indistinguishable, so each is charged one
                            # attempt.  Rebuild the pool afterwards.
                            if not broken:
                                sched._c_pool_breaks.inc()
                                broken = True
                            done = sched._fail_or_requeue(
                                item, "BrokenProcessPool",
                                traceback.format_exc(), queue,
                                results, done, total,
                            )
                            continue
                        except Exception as exc:
                            # The payload failed to unpickle (or another
                            # local fault); isolate it as a failed
                            # attempt of this cell only.
                            done = sched._fail_or_requeue(
                                item, type(exc).__name__,
                                traceback.format_exc(), queue,
                                results, done, total,
                            )
                            continue
                        if out[0] == "ok":
                            done += 1
                            results[item.spec] = sched._finish(
                                CellResult(item.spec, out[1],
                                           attempts=item.attempt + 1),
                                done, total,
                            )
                        else:
                            done = sched._fail_or_requeue(
                                item, out[1], out[2], queue,
                                results, done, total,
                            )
                    # Waiting cells (and retries requeued above) go to
                    # the current pool while it is healthy.
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
    "BackendError",
    "ProcessPoolBackend",
    "SerialBackend",
    "WorkerBackend",
    "config_id",
    "detect_cpus",
    "dispatch_tables",
]
