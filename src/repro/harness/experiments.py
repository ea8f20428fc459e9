"""Experiment definitions: one function per paper table/figure.

Every function returns plain data structures (lists of dicts) that the
benchmark harnesses print with :mod:`repro.harness.reporting`, and that
tests assert shape properties on.  See DESIGN.md section 4 for the
experiment index and the expected shapes.

All experiments route through the same plan → execute → assemble
pipeline (:mod:`repro.harness.executor`): cells are planned up front,
deduplicated (schemes of one benchmark share their compute-time run),
and handed to the caller's ``executor`` — a
:class:`~repro.harness.executor.SweepExecutor` that decides the worker
count, the on-disk result cache, timeouts and progress narration; rows
are identical whatever it decides.  Without one, a sweep runs serially
and uncached.  A failed cell yields an error row (benchmark, scheme,
error text) instead of aborting the sweep.

The paper artifacts (``table1``, ``figure4``–``figure7``) are now thin
wrappers: each builds the equivalent declarative
:class:`~repro.harness.spec.ExperimentSpec` (the ``*_spec`` builders
below) and hands it to :func:`~repro.harness.spec.run_spec`.  The same
specs ship as files under ``examples/specs/`` for ``repro run-spec``;
file and wrapper produce bit-identical rows.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from ..config import MachineConfig, bench_config
from ..workloads import workload_class
from .executor import SweepExecutor, SweepPlan, error_row
from .runner import SCHEMES
from .spec import Axis, ExperimentSpec, WorkloadSel, run_spec

#: The paper's benchmark suite (the `spmv` extension workload is opt-in).
OLDEN = ("bh", "bisort", "em3d", "health", "mst", "perimeter", "power",
         "treeadd", "tsp", "voronoi")

#: Benchmarks with an appreciable memory-latency component — the set over
#: which the paper computes its headline averages ("If we disregard bh,
#: bisort, power, tsp and voronoi...", Section 4.2).
MEMORY_BOUND = ("em3d", "health", "mst", "perimeter", "treeadd")

#: Figure 4's idiom-comparison subjects: the benchmarks with more than one
#: applicable idiom.
FIGURE4_SUBJECTS = {
    "health": ("queue", "full", "chain", "root"),
    "mst": ("queue", "root"),
    "em3d": ("queue",),
}


def small_params(name: str) -> dict[str, Any]:
    """Reduced sizes for quick runs/tests (not the bench defaults)."""
    return workload_class(name).test_params()


# ----------------------------------------------------------------------
# Table 1 — benchmark characterization
# ----------------------------------------------------------------------

def table1_spec(
    benchmarks: tuple[str, ...] | None = None,
    params: dict[str, dict[str, Any]] | None = None,
) -> ExperimentSpec:
    """The declarative form of :func:`table1` (``examples/specs/table1.toml``)."""
    return ExperimentSpec(
        name="table1",
        title="Table 1 — benchmark characterization",
        kind="table1",
        workloads=tuple(
            WorkloadSel(name, params=dict((params or {}).get(name) or {}))
            for name in benchmarks or OLDEN
        ),
    )


def table1(
    cfg: MachineConfig | None = None,
    benchmarks: tuple[str, ...] | None = None,
    params: dict[str, dict[str, Any]] | None = None,
    executor: SweepExecutor | None = None,
) -> list[dict[str, object]]:
    return run_spec(table1_spec(benchmarks, params), cfg=cfg or bench_config(),
                    executor=executor)


# ----------------------------------------------------------------------
# Figure 4 — comparing idioms (software and cooperative)
# ----------------------------------------------------------------------

def figure4_spec(
    subjects: dict[str, tuple[str, ...]] | None = None,
    params: dict[str, dict[str, Any]] | None = None,
) -> ExperimentSpec:
    """The declarative form of :func:`figure4` (``examples/specs/figure4.toml``)."""
    return ExperimentSpec(
        name="figure4",
        title="Figure 4 — comparing idioms (software and cooperative)",
        label_key="config",
        workloads=tuple(
            WorkloadSel(name, params=dict((params or {}).get(name) or {}),
                        idioms=tuple(idioms))
            for name, idioms in (subjects or FIGURE4_SUBJECTS).items()
        ),
        columns=("benchmark", "config", "normalized", "compute", "memory"),
    )


def figure4(
    cfg: MachineConfig | None = None,
    subjects: dict[str, tuple[str, ...]] | None = None,
    params: dict[str, dict[str, Any]] | None = None,
    executor: SweepExecutor | None = None,
) -> list[dict[str, object]]:
    return run_spec(figure4_spec(subjects, params), cfg=cfg or bench_config(),
                    executor=executor)


# ----------------------------------------------------------------------
# Figure 5 — comparing implementations (+ DBP)
# ----------------------------------------------------------------------

def figure5_spec(
    benchmarks: tuple[str, ...] | None = None,
    params: dict[str, dict[str, Any]] | None = None,
    schemes: tuple[str, ...] = SCHEMES,
) -> ExperimentSpec:
    """The declarative form of :func:`figure5` (``examples/specs/figure5.toml``)."""
    return ExperimentSpec(
        name="figure5",
        title="Figure 5 — comparing implementations (+ DBP)",
        workloads=tuple(
            WorkloadSel(name, params=dict((params or {}).get(name) or {}))
            for name in benchmarks or OLDEN
        ),
        schemes=tuple(schemes),
        columns=("benchmark", "scheme", "variant", "normalized",
                 "compute", "memory", "mem_reduction%"),
    )


def figure5(
    cfg: MachineConfig | None = None,
    benchmarks: tuple[str, ...] | None = None,
    params: dict[str, dict[str, Any]] | None = None,
    schemes: tuple[str, ...] = SCHEMES,
    executor: SweepExecutor | None = None,
) -> list[dict[str, object]]:
    return run_spec(figure5_spec(benchmarks, params, schemes),
                    cfg=cfg or bench_config(), executor=executor)


def figure5_summary(rows: list[dict[str, object]]) -> list[dict[str, object]]:
    """The paper's headline averages over the memory-bound benchmarks."""
    out = []
    for scheme in ("software", "cooperative", "hardware", "dbp"):
        # Degenerate tiny runs can round "normalized" to 0.0 (and error
        # rows carry no metrics at all); both are skipped, not divided by.
        picked = [
            r for r in rows
            if r["scheme"] == scheme and r["benchmark"] in MEMORY_BOUND
            and r.get("normalized")
        ]
        if not picked:
            continue
        speedup = sum(1 / r["normalized"] for r in picked) / len(picked)
        memcut = sum(r["mem_reduction%"] for r in picked) / len(picked)
        out.append({
            "scheme": scheme,
            "avg speedup%": round(100 * (speedup - 1), 1),
            "avg mem stall cut%": round(memcut, 1),
        })
    return out


# ----------------------------------------------------------------------
# Figure 6 — bandwidth (bytes L1<->L2 per baseline dynamic instruction)
# ----------------------------------------------------------------------

def figure6_spec(
    benchmarks: tuple[str, ...] | None = None,
    params: dict[str, dict[str, Any]] | None = None,
) -> ExperimentSpec:
    """The declarative form of :func:`figure6` (``examples/specs/figure6.toml``).

    The ``bytes/inst`` metric normalizes by the *original* (baseline)
    program's instruction count so added prefetch instructions do not
    bias the metric."""
    return ExperimentSpec(
        name="figure6",
        title="Figure 6 — bandwidth (bytes L1<->L2 per baseline instruction)",
        workloads=tuple(
            WorkloadSel(name, params=dict((params or {}).get(name) or {}))
            for name in benchmarks or OLDEN
        ),
        columns=("benchmark", "scheme", "bytes/inst"),
    )


def figure6(
    cfg: MachineConfig | None = None,
    benchmarks: tuple[str, ...] | None = None,
    params: dict[str, dict[str, Any]] | None = None,
    executor: SweepExecutor | None = None,
) -> list[dict[str, object]]:
    return run_spec(figure6_spec(benchmarks, params), cfg=cfg or bench_config(),
                    executor=executor)


# ----------------------------------------------------------------------
# Figure 7 — tolerating longer latencies (health)
# ----------------------------------------------------------------------

def figure7_spec(
    latencies: tuple[int, ...] = (70, 280),
    intervals: tuple[int, ...] = (8, 16),
    params: dict[str, Any] | None = None,
) -> ExperimentSpec:
    """The declarative form of :func:`figure7` (``examples/specs/figure7.toml``).

    The interval axis is *linked*: one value sets both the machine's
    ``prefetch.jump_interval`` and the workload's ``interval`` parameter
    (the paper tunes the software in step with the hardware)."""
    return ExperimentSpec(
        name="figure7",
        title="Figure 7 — tolerating longer latencies (health)",
        workloads=(WorkloadSel("health", params=dict(params or {})),),
        axes=(
            Axis("latency", tuple(latencies), ("machine.memory_latency",)),
            Axis("interval", tuple(intervals),
                 ("machine.prefetch.jump_interval", "params.interval")),
        ),
        columns=("latency", "interval", "scheme", "total",
                 "normalized", "mem_reduction%"),
    )


def figure7(
    cfg: MachineConfig | None = None,
    latencies: tuple[int, ...] = (70, 280),
    intervals: tuple[int, ...] = (8, 16),
    params: dict[str, Any] | None = None,
    executor: SweepExecutor | None = None,
) -> list[dict[str, object]]:
    return run_spec(figure7_spec(latencies, intervals, params),
                    cfg=cfg or bench_config(), executor=executor)


# ----------------------------------------------------------------------
# X1 — on-chip jump-pointer table ablation (Section 3.3)
# ----------------------------------------------------------------------

def onchip_table_ablation(
    cfg: MachineConfig | None = None,
    benchmarks: tuple[str, ...] = ("em3d", "health", "treeadd"),
    table_entries: int = 16384,
    params: dict[str, dict[str, Any]] | None = None,
    executor: SweepExecutor | None = None,
) -> list[dict[str, object]]:
    cfg = cfg or bench_config()
    onchip_cfg = replace(
        cfg, prefetch=replace(cfg.prefetch, onchip_table_entries=table_entries)
    )
    plan = SweepPlan(cfg)
    scheduled = []
    for name in benchmarks:
        p = (params or {}).get(name)
        scheduled.append((
            name,
            plan.add_run(name, "base", p),
            plan.add_run(name, "hardware", p),
            plan.add_run(name, "hardware", p, cfg=onchip_cfg),
        ))
    results = plan.execute(executor)

    rows = []
    for name, base_sr, padding_sr, onchip_sr in scheduled:
        base, e1 = results.resolve(base_sr)
        padding, e2 = results.resolve(padding_sr)
        onchip, e3 = results.resolve(onchip_sr)
        err = e1 or e2 or e3
        if err is not None:
            rows.append(error_row(name, "hardware", err))
            continue
        rows.append({
            "benchmark": name,
            "base": base.total,
            "hw (padding)": round(padding.normalized(base.total), 3),
            f"hw (on-chip {table_entries})": round(onchip.normalized(base.total), 3),
        })
    return rows


# ----------------------------------------------------------------------
# X2 — creation overhead and traversal-count sensitivity (Section 4.2)
# ----------------------------------------------------------------------

def creation_overhead(
    cfg: MachineConfig | None = None,
    benchmarks: tuple[str, ...] = ("health", "treeadd"),
    params: dict[str, dict[str, Any]] | None = None,
    executor: SweepExecutor | None = None,
) -> list[dict[str, object]]:
    """A-priori slowdown of jump-pointer creation: the compute-time ratio
    of the instrumented program to the baseline (paper: ~12% for health)."""
    cfg = cfg or bench_config()
    plan = SweepPlan(cfg)
    scheduled = []
    for name in benchmarks:
        p = (params or {}).get(name)
        scheduled.append((
            name, plan.add_run(name, "base", p), plan.add_run(name, "software", p)
        ))
    results = plan.execute(executor)

    rows = []
    for name, base_sr, sw_sr in scheduled:
        base, e1 = results.resolve(base_sr)
        sw, e2 = results.resolve(sw_sr)
        err = e1 or e2
        if err is not None:
            rows.append(error_row(name, "software", err))
            continue
        rows.append({
            "benchmark": name,
            "variant": sw.variant,
            "creation overhead%": round(100 * (sw.compute / base.compute - 1), 1),
        })
    return rows


def traversal_count_sweep(
    cfg: MachineConfig | None = None,
    passes: tuple[int, ...] = (1, 2, 4, 8),
    params: dict[str, Any] | None = None,
    executor: SweepExecutor | None = None,
) -> list[dict[str, object]]:
    """Hardware vs cooperative JPP (and DBP) on treeadd as the number of
    traversals grows: hardware's *jump-pointer* half forfeits the first
    pass, so at one pass it adds nothing over its DBP half and its
    advantage appears only with repetition (Section 4.2)."""
    cfg = cfg or bench_config()
    plan = SweepPlan(cfg)
    scheduled = []
    for p in passes:
        wparams = dict(params or {})
        wparams["passes"] = p
        scheduled.append((p, {
            s: plan.add_run("treeadd", s, wparams)
            for s in ("base", "hardware", "cooperative", "dbp")
        }))
    results = plan.execute(executor)

    rows = []
    for p, per_scheme in scheduled:
        runs = {}
        err = None
        for scheme, sr in per_scheme.items():
            runs[scheme], e = results.resolve(sr)
            err = err or e
        if err is not None:
            row = error_row("treeadd", "sweep", err)
            row["passes"] = p
            rows.append(row)
            continue
        base = runs["base"]
        rows.append({
            "passes": p,
            "hardware": round(runs["hardware"].normalized(base.total), 3),
            "cooperative": round(runs["cooperative"].normalized(base.total), 3),
            "dbp": round(runs["dbp"].normalized(base.total), 3),
        })
    return rows
