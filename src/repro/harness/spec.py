"""Declarative experiment specifications.

An :class:`ExperimentSpec` is the serializable description of one
experiment: a named machine plus dotted-path overrides, a workload grid,
a scheme (or idiom) list, optional axis sweeps, and the row columns to
report.  Specs load from TOML or JSON files (``examples/specs/``), and
**compile onto the existing sweep machinery** — every spec becomes plain
:class:`~repro.harness.executor.RunSpec` cells in a
:class:`~repro.harness.executor.SweepPlan`, so spec-driven runs inherit
the deduplication, on-disk result cache (which is also how an
interrupted run resumes), process-pool parallelism and timeouts of the
:class:`~repro.harness.executor.SweepExecutor` they are given, without
any code of their own.  Every paper experiment is one shipped spec
file; there is no second definition in code.

Spec documents have this shape (TOML shown; JSON is isomorphic)::

    name = "figure7"
    title = "Figure 7 — latency tolerance (health)"
    machine = "bench"                # a repro.config.MACHINES name
    # overrides = {"dl1.size" = 16384}   # dotted-path machine tweaks
    # profile = true                 # CPI-stack profiler on every timing cell
    # telemetry = true               # outcome/miss telemetry on every timing cell

    workloads = ["health"]           # strings or [[workloads]] tables
    schemes = ["base", "software", "cooperative", "hardware", "dbp"]
    columns = ["latency", "interval", "scheme", "total",
               "normalized", "mem_reduction%"]

    [[axes]]                         # cross-product sweep axes
    name = "latency"
    values = [70, 280]
    set = ["machine.memory_latency"]

    [[axes]]
    name = "interval"
    values = [8, 16]
    set = ["machine.prefetch.jump_interval", "params.interval"]

Workload tables take ``name``, ``params``, a pinned ``idiom``, or a
figure-4 style ``idioms`` expansion (the base run plus every available
software then cooperative variant of the listed idioms).
Column names are either the spec's ``label_key`` (default ``scheme``),
an axis name, or one of the registered metrics in :data:`METRICS`.
"""

from __future__ import annotations

import itertools
import json
import tomllib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Mapping

from ..config import MACHINES, MachineConfig, get_machine
from ..errors import ReproError
from ..obs import artifact
from ..workloads import get_workload, workload_class
from .executor import (
    ScheduledRun,
    SweepExecutor,
    SweepPlan,
    SweepResults,
    error_row,
)
from .runner import SchemeRun
from .schemes import SCHEME_REGISTRY, get_scheme, paper_scheme_names


class SpecError(ReproError):
    """A malformed or unsatisfiable experiment spec."""


# ----------------------------------------------------------------------
# Row metrics
# ----------------------------------------------------------------------

#: Column name -> metric over (run, base, benchmark).  The rounding is
#: part of each metric: printed rows are compared byte for byte.
METRICS: dict[str, Callable[[SchemeRun, SchemeRun, str], Any]] = {
    "benchmark": lambda run, base, name: name,
    "variant": lambda run, base, name: run.variant,
    "total": lambda run, base, name: run.total,
    "cycles": lambda run, base, name: run.total,
    "compute": lambda run, base, name: run.compute,
    "memory": lambda run, base, name: run.memory,
    "instructions": lambda run, base, name: run.result.instructions,
    "ipc": lambda run, base, name: round(run.result.ipc, 2),
    "normalized": lambda run, base, name: round(run.normalized(base.total), 3),
    "mem_reduction%": lambda run, base, name: round(
        100 * run.memory_reduction(base.memory), 1
    ),
    "bytes/inst": lambda run, base, name: round(
        run.result.hierarchy.bytes_l1_l2 / base.result.instructions, 3
    ),
    # A-priori slowdown of jump-pointer creation (Section 4.2): the
    # compute-time ratio of the instrumented program to the baseline.
    "creation overhead%": lambda run, base, name: round(
        100 * (run.compute / base.compute - 1), 1
    ),
    # Table 1 (Section 4.1): where JPP is needed and applicable.
    "insts": lambda run, base, name: run.result.instructions,
    "loads": lambda run, base, name: run.result.loads,
    "%lds loads": lambda run, base, name: round(
        100 * run.result.lds_load_fraction, 1
    ),
    "L1 miss%": lambda run, base, name: round(
        100 * run.result.l1d_miss_ratio, 2
    ),
    "%misses lds": lambda run, base, name: round(
        100 * run.result.lds_miss_fraction, 1
    ),
    "mem frac%": lambda run, base, name: round(
        100 * (run.memory / run.total if run.total else 0.0), 1
    ),
    "structure": lambda run, base, name: workload_class(name).structure,
    "idioms": lambda run, base, name: (
        "/".join(workload_class(name).idioms) or "-"
    ),
}


def _outcome_counts(run: SchemeRun) -> Mapping[str, int]:
    tele = run.result.telemetry or {}
    return tele.get("prefetch_outcomes", {}).get("counts", {})


def _outcome_raw(run: SchemeRun, key: str) -> int:
    tele = run.result.telemetry or {}
    return tele.get("prefetch_outcomes", {}).get(key, 0)


def _accuracy(run: SchemeRun) -> float:
    issued = _outcome_raw(run, "issued")
    if not issued:
        return 0.0
    return round(100 * _outcome_counts(run).get("timely", 0) / issued, 1)


#: Columns that read ``SimResult.telemetry`` and therefore require the
#: spec to set ``telemetry = true`` (validated at spec construction):
#: the per-prefetch outcomes (Section-5 taxonomy) and Table 1's average
#: number of in-flight L1 data misses, sampled at each miss.
TELEMETRY_COLUMNS = {
    "timely": lambda run, base, name: _outcome_counts(run).get("timely", 0),
    "late": lambda run, base, name: _outcome_counts(run).get("late", 0),
    "early-evicted": lambda run, base, name: _outcome_counts(run).get(
        "early-evicted", 0
    ),
    "useless": lambda run, base, name: _outcome_counts(run).get("useless", 0),
    "dropped": lambda run, base, name: _outcome_counts(run).get("dropped", 0),
    "issued": lambda run, base, name: _outcome_raw(run, "issued"),
    "accuracy%": lambda run, base, name: _accuracy(run),
    "miss parallelism": lambda run, base, name: round(
        (run.result.telemetry or {}).get("miss_parallelism", 0.0), 2
    ),
}
METRICS.update(TELEMETRY_COLUMNS)

#: Metrics that need the baseline run (a failed base fails the row).
BASE_DEPENDENT = {"normalized", "mem_reduction%", "bytes/inst",
                  "creation overhead%"}


# ----------------------------------------------------------------------
# Spec dataclasses
# ----------------------------------------------------------------------

def _reject_unknown(kind: str, data: Mapping[str, Any], known: set[str]) -> None:
    unknown = set(data) - known
    if unknown:
        raise SpecError(
            f"unknown {kind} key(s) {sorted(unknown)}; "
            f"known keys: {sorted(known)}"
        )


_TYPE_NAMES = {bool: "a boolean", list: "a list", Mapping: "a table",
               str: "a string"}


def _typed(kind: str, data: Mapping[str, Any], key: str, typ: type,
           default: Any) -> Any:
    """``data[key]`` (or ``default``), which must be of the documented
    ``typ``: a quoted ``"false"`` is not a boolean, and a bare string is
    not a list of names."""
    value = data.get(key, default)
    ok = (isinstance(value, (list, tuple)) if typ is list
          else isinstance(value, typ))
    if not ok:
        raise SpecError(
            f"{kind} key {key!r} must be {_TYPE_NAMES[typ]}, got {value!r}"
        )
    return value


@dataclass(frozen=True)
class WorkloadSel:
    """One workload of the grid, with parameters and variant selection."""

    name: str
    params: dict[str, Any] = field(default_factory=dict)
    idiom: str | None = None
    idioms: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.idiom is not None and self.idioms:
            raise SpecError(
                f"workload {self.name!r}: 'idiom' pins one scheme variant; "
                "'idioms' expands a comparison — use one or the other"
            )

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {"name": self.name}
        if self.params:
            d["params"] = dict(self.params)
        if self.idiom is not None:
            d["idiom"] = self.idiom
        if self.idioms:
            d["idioms"] = list(self.idioms)
        return d

    @classmethod
    def parse(cls, data: Any) -> "WorkloadSel":
        if isinstance(data, str):
            return cls(name=data)
        if not isinstance(data, Mapping):
            raise SpecError(
                f"workload entry must be a name or a table, got {data!r}"
            )
        _reject_unknown(
            "workload", data, {"name", "params", "idiom", "idioms"}
        )
        if "name" not in data:
            raise SpecError(f"workload entry {data!r} has no 'name'")
        return cls(
            name=_typed("workload", data, "name", str, ""),
            params=dict(_typed("workload", data, "params", Mapping, {})),
            idiom=data.get("idiom"),
            idioms=tuple(_typed("workload", data, "idioms", list, ())),
        )


@dataclass(frozen=True)
class Axis:
    """One sweep axis: a value list applied to machine/workload paths."""

    name: str
    values: tuple[Any, ...]
    set: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise SpecError(f"axis {self.name!r} has no values")
        if not self.set:
            raise SpecError(
                f"axis {self.name!r} sets no paths; use e.g. "
                f"set = [\"machine.{self.name}\"]"
            )
        for target in self.set:
            if not (target.startswith("machine.") or target.startswith("params.")):
                raise SpecError(
                    f"axis {self.name!r}: target {target!r} must start "
                    "with 'machine.' or 'params.'"
                )

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "values": list(self.values),
            "set": list(self.set),
        }

    @classmethod
    def parse(cls, data: Any) -> "Axis":
        if not isinstance(data, Mapping):
            raise SpecError(f"axis entry must be a table, got {data!r}")
        _reject_unknown("axis", data, {"name", "values", "set"})
        if "name" not in data:
            raise SpecError(f"axis entry {data!r} has no 'name'")
        return cls(
            name=_typed("axis", data, "name", str, ""),
            values=tuple(_typed("axis", data, "values", list, ())),
            set=tuple(_typed("axis", data, "set", list, ())),
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """A complete, serializable experiment description."""

    name: str
    title: str = ""
    machine: str = "bench"
    overrides: dict[str, Any] = field(default_factory=dict)
    workloads: tuple[WorkloadSel, ...] = ()
    schemes: tuple[str, ...] = ()
    axes: tuple[Axis, ...] = ()
    columns: tuple[str, ...] = ()
    label_key: str = "scheme"
    profile: bool = False
    """Attach a :class:`repro.obs.Profiler` to every timing cell: each
    cell's CPI stack / hot-site table rides into the result cache with
    its ``SimResult`` (``profile = true`` in the spec file)."""
    telemetry: bool = False
    """Attach a :class:`repro.obs.Telemetry` context to every timing
    cell (``telemetry = true`` in the spec file): per-prefetch outcome
    counts and miss parallelism ride into the result cache with the
    ``SimResult``, unlocking the :data:`TELEMETRY_COLUMNS`
    (``timely``/``late``/…/``miss parallelism``) and the tournament's
    ranked summary.  Cycle counts are unchanged."""

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("experiment spec has no name")
        if not self.workloads:
            raise SpecError(f"spec {self.name!r} lists no workloads")
        seen: set[str] = set()
        for axis in self.axes:
            if axis.name in seen:
                raise SpecError(f"duplicate axis name {axis.name!r}")
            seen.add(axis.name)
        axis_names = seen
        for col in self.columns:
            if col in TELEMETRY_COLUMNS and not self.telemetry:
                raise SpecError(
                    f"column {col!r} reads run telemetry; set "
                    "telemetry = true in the spec to collect it"
                )
            if col == self.label_key or col in axis_names or col in METRICS:
                continue
            raise SpecError(
                f"unknown column {col!r}; choose the label key "
                f"({self.label_key!r}), an axis name, or a metric from "
                f"{sorted(METRICS)}"
            )
        if not self.columns:
            raise SpecError(f"spec {self.name!r} needs columns")

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe document (the on-disk/artifact form)."""
        d: dict[str, Any] = {
            "name": self.name,
            "title": self.title,
            "machine": self.machine,
            "workloads": [w.to_dict() for w in self.workloads],
        }
        if self.overrides:
            d["overrides"] = dict(self.overrides)
        if self.schemes:
            d["schemes"] = list(self.schemes)
        if self.axes:
            d["axes"] = [a.to_dict() for a in self.axes]
        if self.columns:
            d["columns"] = list(self.columns)
        if self.label_key != "scheme":
            d["label_key"] = self.label_key
        if self.profile:
            d["profile"] = True
        if self.telemetry:
            d["telemetry"] = True
        return d

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        if not isinstance(data, Mapping):
            raise SpecError(f"spec must be a mapping, got {type(data).__name__}")
        _reject_unknown("spec", data, {
            "name", "title", "machine", "overrides", "workloads",
            "schemes", "axes", "columns", "label_key", "profile",
            "telemetry",
        })
        def get(key: str, typ: type, default: Any) -> Any:
            return _typed("spec", data, key, typ, default)

        return cls(
            name=get("name", str, ""),
            title=get("title", str, ""),
            machine=get("machine", str, "bench"),
            overrides=dict(get("overrides", Mapping, {})),
            workloads=tuple(
                WorkloadSel.parse(w) for w in get("workloads", list, ())
            ),
            schemes=tuple(get("schemes", list, ())),
            axes=tuple(Axis.parse(a) for a in get("axes", list, ())),
            columns=tuple(get("columns", list, ())),
            label_key=get("label_key", str, "scheme"),
            profile=get("profile", bool, False),
            telemetry=get("telemetry", bool, False),
        )

    # -- convenient variations ----------------------------------------

    def with_machine(self, machine: str) -> "ExperimentSpec":
        """Same experiment on a different named machine."""
        if machine not in MACHINES:
            raise SpecError(
                f"unknown machine {machine!r}; available: {MACHINES.names()}"
            )
        return replace(self, machine=machine)

    def with_workload_params(
        self, params: Mapping[str, Mapping[str, Any]]
    ) -> "ExperimentSpec":
        """Merge per-workload parameter overrides over the spec's own."""
        return replace(self, workloads=tuple(
            replace(w, params={**w.params, **dict(params.get(w.name, {}))})
            for w in self.workloads
        ))

    def small(self) -> "ExperimentSpec":
        """Each workload at its quick test size (spec params still win)."""
        return replace(self, workloads=tuple(
            replace(w, params={**workload_class(w.name).test_params(),
                               **w.params})
            for w in self.workloads
        ))


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------

def load_spec(path: str | Path) -> ExperimentSpec:
    """Parse a ``.toml`` or ``.json`` spec file."""
    p = Path(path)
    suffix = p.suffix.lower()
    if suffix == ".toml":
        try:
            with open(p, "rb") as f:
                data = tomllib.load(f)
        except OSError as exc:
            raise SpecError(f"cannot read spec {p}: {exc}") from None
        except tomllib.TOMLDecodeError as exc:
            raise SpecError(f"{p}: invalid TOML: {exc}") from None
    elif suffix == ".json":
        try:
            with open(p) as f:
                data = json.load(f)
        except OSError as exc:
            raise SpecError(f"cannot read spec {p}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise SpecError(f"{p}: invalid JSON: {exc}") from None
    else:
        raise SpecError(
            f"unsupported spec extension {p.suffix!r} (use .toml or .json)"
        )
    try:
        return ExperimentSpec.from_dict(data)
    except SpecError as exc:
        raise SpecError(f"{p}: {exc}") from None


# ----------------------------------------------------------------------
# Compilation: spec -> SweepPlan cells + row plans
# ----------------------------------------------------------------------

@dataclass
class _PlannedRow:
    """One output row awaiting its cells: the run, the base run it is
    normalized to (None when no column needs one), and the axis point it
    belongs to."""

    benchmark: str
    label: str
    axis: dict[str, Any]
    run: ScheduledRun
    base: ScheduledRun | None = None
    base_fallback: str | None = None     # error text when only base failed
    # None -> use the base cell's own traceback (scheme-mode behaviour);
    # a string -> fixed text (figure-4 style "baseline run failed").


@dataclass
class CompiledSpec:
    """A spec lowered onto the sweep machinery, ready to execute."""

    spec: ExperimentSpec
    plan: SweepPlan
    rows: list[_PlannedRow]

    @property
    def cell_count(self) -> int:
        """Distinct simulation cells after deduplication."""
        return len(self.plan.cells())

    def execute(
        self, executor: SweepExecutor | None = None
    ) -> list[dict[str, object]]:
        results = self.plan.execute(executor)
        return assemble_rows(self.spec, self.rows, results)


def _axis_points(
    axes: tuple[Axis, ...]
) -> list[tuple[dict[str, Any], dict[str, Any], dict[str, Any]]]:
    """Cross product of the axes: (axis values, machine overrides,
    workload param overrides) per point, first axis outermost."""
    if not axes:
        return [({}, {}, {})]
    points = []
    for combo in itertools.product(*(a.values for a in axes)):
        values: dict[str, Any] = {}
        machine: dict[str, Any] = {}
        params: dict[str, Any] = {}
        for axis, value in zip(axes, combo):
            values[axis.name] = value
            for target in axis.set:
                section, __, path = target.partition(".")
                if section == "machine":
                    machine[path] = value
                else:
                    params[path] = value
        points.append((values, machine, params))
    return points


def compile_spec(spec: ExperimentSpec) -> CompiledSpec:
    """Lower ``spec`` to sweep cells on its named machine, with its
    dotted overrides and then each axis point's settings applied."""
    base_cfg = get_machine(spec.machine).with_overrides(spec.overrides)
    # An empty scheme axis means the paper's default matrix; zoo schemes
    # must be named explicitly (as tournament.toml does).
    schemes = spec.schemes or tuple(paper_scheme_names())
    for scheme in schemes:
        get_scheme(scheme)  # unknown names fail at compile, not mid-sweep

    need_base = any(c in BASE_DEPENDENT for c in spec.columns)
    plan = SweepPlan(base_cfg)
    rows: list[_PlannedRow] = []
    for axis_values, machine_over, param_over in _axis_points(spec.axes):
        point_cfg = base_cfg.with_overrides(machine_over)
        for sel in spec.workloads:
            params = {**sel.params, **param_over}
            if sel.idioms:
                rows.extend(_plan_idiom_rows(
                    plan, sel, params, point_cfg, axis_values,
                    profile=spec.profile, telemetry=spec.telemetry,
                ))
            else:
                rows.extend(_plan_scheme_rows(
                    plan, sel, schemes, params, point_cfg, axis_values,
                    need_base, profile=spec.profile, telemetry=spec.telemetry,
                ))
    return CompiledSpec(spec, plan, rows)


def _plan_scheme_rows(
    plan: SweepPlan,
    sel: WorkloadSel,
    schemes: tuple[str, ...],
    params: dict[str, Any],
    cfg: MachineConfig,
    axis_values: dict[str, Any],
    need_base: bool,
    profile: bool = False,
    telemetry: bool = False,
) -> list[_PlannedRow]:
    per_scheme = {
        s: plan.add_run(sel.name, s, params, idiom=sel.idiom, cfg=cfg,
                        profile=profile, telemetry=telemetry)
        for s in schemes
    }
    # A base-dependent column needs the baseline even when it is not
    # displayed; deduplication makes this free when "base" is a scheme.
    base_sr = per_scheme.get("base")
    if base_sr is None and need_base:
        base_sr = plan.add_run(sel.name, "base", params, cfg=cfg,
                               profile=profile, telemetry=telemetry)
    return [
        _PlannedRow(sel.name, s, axis_values, run=per_scheme[s], base=base_sr)
        for s in schemes
    ]


def _plan_idiom_rows(
    plan: SweepPlan,
    sel: WorkloadSel,
    params: dict[str, Any],
    cfg: MachineConfig,
    axis_values: dict[str, Any],
    profile: bool = False,
    telemetry: bool = False,
) -> list[_PlannedRow]:
    """Figure-4 expansion: the base run plus every available variant of
    the listed idioms under each idiom-selecting scheme (``software``
    then ``cooperative``, in registry order)."""
    workload = get_workload(sel.name, **params)
    base_sr = plan.add_run(sel.name, "base", params, cfg=cfg, profile=profile,
                           telemetry=telemetry)
    rows = [_PlannedRow(
        sel.name, "base", axis_values, run=base_sr, base=base_sr
    )]
    for __, scheme in SCHEME_REGISTRY.items():
        if scheme.variant is not None:
            continue
        for idiom in sel.idioms:
            variant = scheme.variant_prefix + idiom
            if variant not in workload.variants:
                continue
            vsr = plan.add_variant_run(sel.name, variant, scheme.engine,
                                       params, cfg=cfg, profile=profile,
                                       telemetry=telemetry)
            rows.append(_PlannedRow(
                sel.name, variant, axis_values, run=vsr, base=base_sr,
                base_fallback="baseline run failed",
            ))
    return rows


# ----------------------------------------------------------------------
# Assembly: cells -> rows
# ----------------------------------------------------------------------

def assemble_rows(
    spec: ExperimentSpec,
    planned: list[_PlannedRow],
    results: SweepResults,
) -> list[dict[str, object]]:
    need_base = any(c in BASE_DEPENDENT for c in spec.columns)
    need_insts = "bytes/inst" in spec.columns
    rows: list[dict[str, object]] = []
    for rp in planned:
        run, err = results.resolve(rp.run)
        if rp.base is rp.run:
            base, base_err = run, err
        elif rp.base is None:
            base, base_err = None, None
        else:
            base, base_err = results.resolve(rp.base)
        failed = (
            err is not None
            or (need_base and base is None)
            or (need_insts and base is not None
                and base.result.instructions == 0)
        )
        if failed:
            if err is not None:
                text = err
            elif rp.base_fallback is not None:
                text = rp.base_fallback
            else:
                text = base_err or ""
            row = error_row(rp.benchmark, rp.label, text,
                            label_key=spec.label_key)
            row.update(rp.axis)
            rows.append(row)
            continue
        row = {}
        for col in spec.columns:
            if col == spec.label_key:
                row[col] = rp.label
            elif col in rp.axis:
                row[col] = rp.axis[col]
            else:
                row[col] = METRICS[col](run, base, rp.benchmark)
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# One-call entry points
# ----------------------------------------------------------------------

def run_spec(
    spec: ExperimentSpec, executor: SweepExecutor | None = None
) -> list[dict[str, object]]:
    """Compile and execute ``spec`` (serially and uncached without an
    ``executor``); returns the report rows."""
    return compile_spec(spec).execute(executor)


def spec_artifact(
    spec: ExperimentSpec,
    rows: list[dict[str, object]],
    meta: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """The ``repro.experiment/1`` artifact: rows plus the full spec that
    produced them, for provenance (a result file is re-runnable)."""
    return artifact(
        "experiment",
        {"spec": spec.to_dict(), "rows": rows},
        meta=dict(meta) if meta else None,
    )
