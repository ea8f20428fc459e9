"""Sweep-cell vocabulary: the unit of work every layer above shares.

A sweep — serial or fanned out over a local process pool — is a set of
:class:`RunSpec` cells, each one ``simulate()`` call.  This module owns
the cell identity (hashable, content-addressed through
:func:`repro.harness.cache.spec_key`, and pickled as-is to pool
workers), the cell outcome (:class:`CellResult`), and the worker body
that turns a spec into a result (:func:`run_cell`).

The layers stack on top:

* :mod:`repro.harness.executor` — plan → dispatch → deterministic
  plan-order assembly, owning timeouts and cache replay;
* :mod:`repro.harness.backends` — the serial and process-pool worker
  backends that execute dispatched cells.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Any, Callable

from ..config import MachineConfig
from ..core.characterization import characterize
from ..cpu.simulator import simulate
from ..errors import ReproError
from ..workloads import get_workload


class SweepError(ReproError):
    """An experiment asked for the result of a failed cell."""


class CellError(str):
    """An error traceback that also carries the exception class name, so
    ``SweepResults.error()`` stays a plain string for callers while
    error rows can be grepped by failure kind."""

    kind: str = ""

    def __new__(cls, text: str, kind: str = "") -> "CellError":
        obj = super().__new__(cls, text)
        obj.kind = kind
        return obj


def _freeze_params(params: dict[str, Any] | None) -> tuple[tuple[str, Any], ...]:
    return tuple(sorted((params or {}).items()))


@dataclass(frozen=True)
class RunSpec:
    """One simulation cell: a (benchmark, variant, engine, config, params)
    point of a sweep.  Hashable — identical cells deduplicate in a plan
    and address the same on-disk cache entry.

    ``kind`` selects the worker: ``"sim"`` runs the timing simulation and
    returns a :class:`SimResult`; ``"table1"`` runs the Table-1
    characterization (miss-interval collection plus the compute-time run)
    and returns the row dict.

    ``profile=True`` attaches a :class:`repro.obs.Profiler` to a ``sim``
    cell; the serialized CPI stack / site table rides along in
    ``SimResult.profile`` (and therefore into the result cache — the flag
    is part of the cache key, so profiled and unprofiled runs never serve
    each other's entries).

    ``telemetry=True`` attaches a :class:`repro.obs.Telemetry` context to
    a ``sim`` cell: the serialized metric registry and per-prefetch
    outcome counts ride along in ``SimResult.telemetry`` (and into the
    result cache — the flag is part of the cache key, like ``profile``).
    Cycle counts are unaffected: telemetry is a pure observer.
    """

    benchmark: str
    variant: str
    engine: str
    cfg: MachineConfig
    params: tuple[tuple[str, Any], ...] = ()
    kind: str = "sim"
    profile: bool = False
    telemetry: bool = False

    @classmethod
    def make(
        cls,
        benchmark: str,
        variant: str,
        engine: str,
        cfg: MachineConfig,
        params: dict[str, Any] | None = None,
        kind: str = "sim",
        profile: bool = False,
        telemetry: bool = False,
    ) -> "RunSpec":
        return cls(
            benchmark, variant, engine, cfg, _freeze_params(params), kind,
            profile, telemetry,
        )

    @property
    def params_dict(self) -> dict[str, Any]:
        return dict(self.params)

    def describe(self) -> str:
        label = f"{self.benchmark}[{self.variant}]"
        if self.kind != "sim":
            return f"{label} {self.kind}"
        tag = " (compute)" if self.cfg.perfect_data_memory else ""
        if self.profile:
            tag += " +profile"
        if self.telemetry:
            tag += " +telemetry"
        return f"{label} x {self.engine}{tag}"


@dataclass
class CellResult:
    """Outcome of one executed (or cache-served) cell."""

    spec: RunSpec
    result: Any = None          # SimResult for "sim", row dict for "table1"
    error: str | None = None
    error_kind: str | None = None   # exception class name of the failure
    cached: bool = False            # served from the on-disk result cache

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class Attempt:
    """One scheduled execution of a cell; the process pool's dispatch
    queue holds these."""

    spec: RunSpec
    deadline: float | None = None


def run_cell(
    spec: RunSpec,
    program_factory: Callable[[], Any] | None = None,
) -> tuple[str, ...]:
    """Worker body: build the program and simulate.  Must stay a
    module-level function (pickled by name into pool workers); never
    raises — failures come back as ``("error", kind, traceback)``.

    ``program_factory`` short-circuits the workload rebuild when the
    caller holds a memoized program (the per-worker memo of
    :mod:`repro.harness.backends`)."""
    try:
        if spec.kind == "table1":
            workload = get_workload(spec.benchmark, **dict(spec.params))
            program = workload.build(spec.variant).program
            row, __ = characterize(
                spec.benchmark, program, spec.cfg,
                structure=workload.structure, idioms=workload.idioms,
            )
            return ("ok", row.as_dict())
        if program_factory is not None:
            program = program_factory()
        else:
            workload = get_workload(spec.benchmark, **dict(spec.params))
            program = workload.build(spec.variant).program
        profiler = None
        if spec.profile:
            from ..obs.profile import Profiler

            profiler = Profiler()
        telemetry = None
        if spec.telemetry:
            from ..obs import Telemetry

            telemetry = Telemetry()
        result = simulate(program, spec.cfg, engine=spec.engine,
                          profile=profiler, telemetry=telemetry)
        return ("ok", result)
    except Exception as exc:
        return ("error", type(exc).__name__, traceback.format_exc())


def error_row(
    benchmark: str,
    scheme: str,
    err: str,
    label_key: str = "scheme",
) -> dict[str, object]:
    """A ragged table row standing in for a failed cell: the last line of
    the traceback (the exception message), the failure's exception class
    name when known, plus the full text."""
    brief = err.strip().splitlines()[-1] if err.strip() else "unknown error"
    return {
        "benchmark": benchmark,
        label_key: scheme,
        "error": brief,
        "error_kind": getattr(err, "kind", "") or "",
        "error_detail": str(err),
    }


__all__ = [
    "Attempt",
    "CellError",
    "CellResult",
    "RunSpec",
    "SweepError",
    "error_row",
    "run_cell",
]
