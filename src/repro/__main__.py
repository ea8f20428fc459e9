"""Command-line interface: reproduce tables/figures and run single configs.

Examples::

    python -m repro list                         # every registry at a glance
    python -m repro list machines                # ... or one registry
    python -m repro run health --scheme hardware # one benchmark, one scheme
    python -m repro run health --all             # full Figure-5 row
    python -m repro table1                       # characterization table
    python -m repro figure4 | figure5 | figure6 | figure7 | x1 | x2
    python -m repro figure5 --jobs 4             # sweep across 4 processes
    python -m repro figure7 --no-cache           # ignore the on-disk cache
    python -m repro figure5 --timeout 300        # reap cells that hang
    python -m repro figure5                      # rerun after Ctrl-C: resumes
    python -m repro run treeadd --scheme software --param levels=9 --param passes=2
    python -m repro run-spec examples/specs/figure5.toml --jobs 4
    python -m repro run-spec mysweep.toml --small -o result.json
    python -m repro tournament --small --jobs 4  # scheme zoo, ranked
    python -m repro tournament --machine small -o tournament.json
    python -m repro stats --json                 # telemetry artifact (JSON)
    python -m repro trace health --small -o health.trace.json
    python -m repro audit --machine small        # full simulation audit
    python -m repro audit --inject-faults 'em3d//dbp=corrupt'  # auditor drill
    python -m repro profile health --scheme hardware   # CPI stack + hot sites
    python -m repro profile em3d --small -o em3d.profile.json --trace em3d.trace.json
    python -m repro bench-diff BENCH_LAYERS.json layers.json --tolerance 1.5
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import bench_config, table2_config, workload_names
from .audit import (
    Auditor,
    audit_workloads,
    compare_benchmarks,
    differential_check,
    fidelity_gate,
    regressions,
)
from .audit.gate import DEFAULT_GOLDEN, CorruptPlan
from .config import MSHR_MODELS, get_machine, machine_names
from .errors import ConfigError
from .harness import (
    SCHEMES,
    scheme_names,
    BenchmarkRunner,
    ResultCache,
    SCHEME_REGISTRY,
    SpecError,
    SweepExecutor,
    compile_spec,
    creation_overhead,
    figure4,
    figure5,
    figure5_summary,
    figure6,
    figure7,
    format_table,
    is_tournament_spec,
    load_spec,
    onchip_table_ablation,
    spec_artifact,
    table1,
    tournament_summary,
    traversal_count_sweep,
)
from .obs import (
    EventTrace,
    MetricRegistry,
    Profiler,
    Telemetry,
    artifact,
    cpi_stack_rows,
    dump_json,
    hot_site_rows,
    latency_rows,
)
from .prefetch.engines import ENGINES
from .workloads import workload_class


def _parse_params(items: list[str]) -> dict:
    params = {}
    for item in items:
        key, sep, value = item.partition("=")
        if not sep:
            raise SystemExit(f"--param expects key=value, got {item!r}")
        try:
            params[key] = int(value)
        except ValueError:
            try:
                params[key] = float(value)
            except ValueError:
                params[key] = value
    return params


def _config(args) -> object:
    cfg = table2_config() if args.table2 else bench_config()
    if args.memory_latency:
        cfg = cfg.with_memory_latency(args.memory_latency)
    if args.interval:
        cfg = cfg.with_jump_interval(args.interval)
    return cfg


def _list_workloads() -> str:
    rows = []
    for name in workload_names():
        cls = workload_class(name)
        rows.append({
            "workload": name,
            "variants": " ".join(cls.variants),
            "structure": cls.structure,
        })
    return format_table(rows, "Workloads")


def _list_machines() -> str:
    rows = []
    for name in machine_names():
        cfg = get_machine(name)
        rows.append({
            "machine": name,
            "mem latency": cfg.memory_latency,
            "dl1": f"{cfg.dl1.size // 1024}KB",
            "l2": f"{cfg.l2.size // 1024}KB",
            "mshr": cfg.mshr_model,
            "jump interval": cfg.prefetch.jump_interval,
        })
    return format_table(rows, "Machines")


def _list_schemes() -> str:
    rows = []
    for name, scheme in SCHEME_REGISTRY.items():
        variant = scheme.variant or f"{scheme.variant_prefix}<idiom>"
        rows.append({
            "scheme": name,
            "variant": variant,
            "engine": scheme.engine,
            "description": scheme.description,
        })
    return format_table(rows, "Schemes")


def _list_engines() -> str:
    rows = []
    for name, cls in ENGINES.items():
        doc = (cls.__doc__ or "").strip().splitlines()
        rows.append({"engine": name, "description": doc[0] if doc else ""})
    return format_table(rows, "Prefetch engines")


def cmd_list(args) -> int:
    sections = {
        "machines": _list_machines,
        "schemes": _list_schemes,
        "engines": _list_engines,
        "workloads": _list_workloads,
    }
    if args.what != "all":
        print(sections[args.what]())
        return 0
    print("\n\n".join(fn() for fn in sections.values()))
    return 0


def cmd_run(args) -> int:
    cfg = _config(args)
    runner = BenchmarkRunner(args.workload, cfg, _workload_params(args))
    schemes = SCHEMES if args.all else (args.scheme,)
    base = runner.run("base")
    rows = []
    for scheme in schemes:
        run = base if scheme == "base" else runner.run(scheme, args.idiom)
        rows.append({
            "scheme": scheme,
            "variant": run.variant,
            "cycles": run.total,
            "compute": run.compute,
            "memory": run.memory,
            "normalized": round(run.normalized(base.total), 3),
            "ipc": round(run.result.ipc, 2),
        })
    print(format_table(rows, f"{args.workload} on {type(cfg).__name__}"))
    return 0


def _workload_params(args) -> dict:
    params = _parse_params(args.param)
    if args.small:
        params = {**workload_class(args.workload).test_params(), **params}
    return params


def _run_meta(args) -> dict:
    return {
        "machine": "table2" if args.table2 else "bench",
        "memory_latency_override": args.memory_latency or None,
        "jump_interval_override": args.interval or None,
        "workload": args.workload,
        "params": _workload_params(args),
    }


def cmd_stats(args) -> int:
    """Run with full telemetry; emit tables or a schema-stable artifact."""
    cfg = _config(args)
    runner = BenchmarkRunner(args.workload, cfg, _workload_params(args))
    schemes = (args.scheme,) if args.scheme else SCHEMES
    runs = {}
    base_total = None
    for scheme in schemes:
        print(f"  running {args.workload}/{scheme} ...", file=sys.stderr)
        runs[scheme] = runner.run(scheme, args.idiom, telemetry=Telemetry())
        if scheme == "base":
            base_total = runs[scheme].total
    if args.json:
        engines = {}
        for scheme, run in runs.items():
            tele = run.result.telemetry
            engines[scheme] = {
                "engine": run.result.engine_name,
                "prefetch_outcomes": tele["prefetch_outcomes"]["counts"],
                "miss_latency": tele["metrics"]["mem.miss_latency_cycles"],
            }
        doc = artifact(
            "stats",
            {
                "benchmark": args.workload,
                "engines": engines,
                "runs": {s: r.to_dict(baseline_total=base_total)
                         for s, r in runs.items()},
            },
            meta=_run_meta(args),
        )
        if args.output:
            dump_json(doc, args.output)
            print(f"wrote {args.output}")
        else:
            print(dump_json(doc))
        return 0
    # Plain-text: scheme summary, then outcome and miss-latency breakdowns.
    summary = []
    for scheme, run in runs.items():
        row = {
            "scheme": scheme,
            "variant": run.variant,
            "cycles": run.total,
            "memory": run.memory,
            "ipc": round(run.result.ipc, 2),
        }
        if base_total:
            row["normalized"] = round(run.normalized(base_total), 3)
        summary.append(row)
    print(format_table(summary, f"{args.workload} — scheme summary"))
    outcome_rows = []
    for scheme, run in runs.items():
        counts = run.result.telemetry["prefetch_outcomes"]["counts"]
        if sum(counts.values()):
            outcome_rows.append({"scheme": scheme, **counts})
    if outcome_rows:
        print()
        print(format_table(outcome_rows, "Prefetch outcomes"))
    print()
    hist_rows = []
    for scheme, run in runs.items():
        hist = run.result.telemetry["metrics"]["mem.miss_latency_cycles"]
        row = {"scheme": scheme, "misses": hist["count"],
               "mean": round(hist["mean"], 1)}
        for b in hist["buckets"]:
            label = f"<={b['le']}" if b["le"] is not None else "inf"
            row[label] = b["count"]
        hist_rows.append(row)
    print(format_table(hist_rows, "Demand miss latency (cycles)"))
    return 0


def cmd_trace(args) -> int:
    """Run one scheme with event tracing; write a Chrome trace file."""
    cfg = _config(args)
    runner = BenchmarkRunner(args.workload, cfg, _workload_params(args))
    trace = EventTrace(limit=args.limit)
    run = runner.run(args.scheme, args.idiom, telemetry=Telemetry(trace=trace))
    out = args.output or f"{args.workload}-{args.scheme}.trace.json"
    trace.dump(out)
    print(f"wrote {out}: {len(trace)} events "
          f"({trace.dropped} dropped past --limit), "
          f"{run.total} cycles simulated; open in chrome://tracing")
    return 0


def _build_executor(args) -> SweepExecutor:
    """--jobs/--cache/--timeout plumbing shared by figure commands.  One
    obs registry spans the cache and the executor so a single dump shows
    the whole sweep's behaviour."""
    registry = MetricRegistry()
    executor = SweepExecutor(
        jobs=args.jobs,
        cache=(None if args.no_cache
               else ResultCache(args.cache_dir, registry=registry)),
        timeout=args.timeout,
        registry=registry,
    )
    # Gate on the resolved worker count, so --jobs 0 auto-detection
    # narrates whenever it picks more than one worker.
    if args.progress or executor.jobs > 1:
        executor.progress = lambda line: print(f"  {line}", file=sys.stderr)
    return executor


def _sweep_footer(executor: SweepExecutor) -> None:
    if executor.cache is not None:
        print(f"  {executor.cache.describe()}", file=sys.stderr)
    print(f"  {executor.describe()}", file=sys.stderr)


def _parse_override_value(text: str):
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            return text


#: Default tournament spec, resolved against the repo checkout (the CLI
#: runs from anywhere; a cwd-relative path is tried first).
_TOURNAMENT_SPEC = "examples/specs/tournament.toml"


def _default_tournament_spec() -> Path:
    local = Path(_TOURNAMENT_SPEC)
    if local.exists():
        return local
    return Path(__file__).resolve().parents[2] / _TOURNAMENT_SPEC


def cmd_run_spec(args) -> int:
    if args.command == "tournament" and args.spec is None:
        args.spec = _default_tournament_spec()
    spec = load_spec(args.spec)
    if args.command == "tournament" and not is_tournament_spec(spec):
        raise SystemExit(
            f"error: {args.spec} is not a tournament spec (needs "
            "telemetry = true, scheme-labeled matrix rows, and the "
            "normalized/issued/outcome columns)"
        )
    if args.machine:
        spec = spec.with_machine(args.machine)
    if args.small:
        spec = spec.small()
    if args.set:
        extra = {}
        for item in args.set:
            key, sep, value = item.partition("=")
            if not sep:
                raise SystemExit(f"--set expects path=value, got {item!r}")
            extra[key] = _parse_override_value(value)
        spec = replace(spec, overrides={**spec.overrides, **extra})
    executor = _build_executor(args)
    compiled = compile_spec(spec)
    print(f"  {args.spec}: {len(compiled.rows)} rows over "
          f"{compiled.cell_count} distinct cells", file=sys.stderr)
    rows = compiled.execute(executor=executor)
    print(format_table(rows, spec.title or spec.name))
    summary = None
    if is_tournament_spec(spec):
        summary = tournament_summary(rows, label_key=spec.label_key)
        print()
        print(format_table(
            summary,
            "Tournament — schemes ranked by geomean normalized time "
            "(lower is better)",
        ))
    if args.output:
        meta = {
            "source": str(args.spec),
            "machine": spec.machine,
            "sweep": executor.stats(),
        }
        if summary is not None:
            meta["summary"] = summary
        doc = spec_artifact(spec, rows, meta=meta)
        dump_json(doc, args.output)
        print(f"wrote {args.output}")
    _sweep_footer(executor)
    return 0


def cmd_audit(args) -> int:
    """Invariant sweep + differential validation + golden-drift gate."""
    failures = 0

    drill = args.inject_faults
    if drill is not None:
        print(f"  injecting faults: {drill.describe()}", file=sys.stderr)
    cells = audit_workloads(
        machine=args.machine,
        workloads=args.workloads or None,
        schemes=args.schemes or None,
        interval=args.every,
        drill=drill,
        strict=args.strict,
        mshr_model=args.mshr_model,
    )
    print(format_table(
        [c.row() for c in cells],
        f"Invariant sweep — {args.machine} machine, every {args.every} commits",
    ))
    for cell in cells:
        if cell.corrupted:
            # The drill: a deliberately-corrupted cell MUST be caught.
            if cell.ok:
                failures += 1
                print(f"  DRILL FAILED: corrupted cell {cell.benchmark}/"
                      f"{cell.scheme} reported no violation", file=sys.stderr)
        elif not cell.ok:
            failures += 1
            for v in cell.violations[:4]:
                print(f"  VIOLATION: {cell.benchmark}/{cell.scheme} "
                      f"{v.describe()}", file=sys.stderr)
    if drill is not None and not any(cell.corrupted for cell in cells):
        # A drill that corrupts nothing proves nothing (e.g. a typo'd
        # selector): fail rather than pass vacuously.
        failures += 1
        print(f"  DRILL FAILED: plan {drill.describe()} matched no audited "
              "cell", file=sys.stderr)

    golden = Path(args.golden) if args.golden else DEFAULT_GOLDEN
    if args.no_diff:
        pass
    elif not golden.exists():
        print(f"  (no golden file at {golden}; skipping differential "
              f"check and fidelity gate)", file=sys.stderr)
    else:
        diff_rows = differential_check(
            golden, machine=args.machine, full_stats_sample=args.diff_sample,
            mshr_model=args.mshr_model,
        )
        print()
        print(format_table(
            [{k: row[k] for k in ("cell", "variant", "mode", "ok",
                                  "divergence")}
             for row in diff_rows],
            "Differential validation — fast vs reference interpreter",
        ))
        for row in diff_rows:
            if not row["ok"]:
                failures += 1
                for line in row["stat_diffs"]:
                    print(f"  STAT DIFF: {row['cell']}: {line}",
                          file=sys.stderr)

    if not args.no_gate and golden.exists():
        drift = fidelity_gate(golden, machine=args.machine)
        print()
        if drift:
            failures += len(drift)
            print(format_table(drift, "Fidelity gate — drift vs golden pins"))
        else:
            print("Fidelity gate: all golden cells reproduce bit-exactly "
                  "(zero drift).")

    if failures:
        print(f"\naudit FAILED: {failures} problem(s)", file=sys.stderr)
        return 1
    print("\naudit OK")
    return 0


def cmd_profile(args) -> int:
    """Run one scheme under the cycle-attribution profiler: CPI stack,
    ranked hot load sites, per-level latency — conservation audited."""
    cfg = _config(args)
    runner = BenchmarkRunner(args.workload, cfg, _workload_params(args))
    trace = EventTrace(limit=args.limit) if args.trace else None
    profiler = Profiler()
    auditor = Auditor(interval=args.every)
    run = runner.run(
        args.scheme,
        args.idiom,
        telemetry=Telemetry(trace=trace) if trace is not None else Telemetry(),
        profile=profiler,
        audit=auditor,
    )
    profile = run.result.profile

    print(format_table(
        cpi_stack_rows(profile),
        f"{args.workload}/{run.scheme} — CPI stack over {run.total} cycles",
    ))
    hot = hot_site_rows(profile, top=args.top)
    print()
    if hot:
        print(format_table(hot, f"Hot load sites (top {args.top} by stall cycles)"))
    else:
        print("Hot load sites: none (no linked-data loads stalled commit).")
    lat = latency_rows(profile)
    if lat:
        print()
        print(format_table(lat, "Load latency by hierarchy level (cycles)"))

    if args.trace:
        trace.dump(args.trace)
        print(f"\nwrote {args.trace}: {len(trace)} events "
              f"({trace.dropped} dropped past --limit); open in chrome://tracing")
    if args.output:
        doc = artifact(
            "profile",
            {
                "benchmark": args.workload,
                "scheme": run.scheme,
                "variant": run.variant,
                "total": run.total,
                "compute": run.compute,
                "memory": run.memory,
                "profile": profile,
            },
            meta=_run_meta(args),
        )
        dump_json(doc, args.output)
        print(f"wrote {args.output}")

    if not auditor.ok:
        for v in auditor.violations[:8]:
            print(f"  VIOLATION: {v.describe()}", file=sys.stderr)
        print(f"\nprofile audit FAILED: {auditor.violation_count} "
              f"violation(s)", file=sys.stderr)
        return 1
    print(f"\nprofile audit OK: {auditor.checks} sweeps, CPI-stack buckets "
          f"sum to {run.total} cycles")
    return 0


def _load_report(path: str) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}") from None


def cmd_bench_diff(args) -> int:
    """Signed per-metric drift between two layer-budget reports."""
    baseline = _load_report(args.baseline)
    current = _load_report(args.current)
    rows = compare_benchmarks(baseline, current, tolerance=args.tolerance)
    print(format_table(
        rows, f"bench-diff — {args.baseline} vs {args.current}"
    ))
    bad = regressions(rows)
    if args.output:
        doc = artifact(
            "bench_diff",
            {
                "baseline": str(args.baseline),
                "current": args.current,
                "tolerance": args.tolerance,
                "rows": rows,
                "regressions": len(bad),
            },
        )
        dump_json(doc, args.output)
        print(f"wrote {args.output}")
    if bad:
        for row in bad:
            print(f"  REGRESSION: {row['metric']} ({row['mode']} {row['band']}): "
                  f"{row['baseline']} -> {row['current']}", file=sys.stderr)
        print(f"\nbench-diff FAILED: {len(bad)} regression(s) "
              f"(tolerance {args.tolerance})", file=sys.stderr)
        return 1
    print(f"\nbench-diff OK: {len(rows)} metrics within tolerance "
          f"{args.tolerance}")
    return 0


def cmd_figure(args) -> int:
    cfg = _config(args)
    name = args.command
    executor = _build_executor(args)
    sweep = {"executor": executor}
    if name == "table1":
        print(format_table(table1(cfg, **sweep),
                           "Table 1 — benchmark characterization"))
    elif name == "figure4":
        print(format_table(figure4(cfg, **sweep), "Figure 4 — idiom comparison"))
    elif name == "figure5":
        rows = figure5(cfg, **sweep)
        print(format_table(rows, "Figure 5 — implementation comparison"))
        print()
        print(format_table(figure5_summary(rows), "Memory-bound averages"))
    elif name == "figure6":
        print(format_table(figure6(cfg, **sweep),
                           "Figure 6 — L1<->L2 bytes per instruction"))
    elif name == "figure7":
        print(format_table(figure7(cfg, **sweep),
                           "Figure 7 — latency tolerance (health)"))
    elif name == "x1":
        print(format_table(onchip_table_ablation(cfg, **sweep),
                           "X1 — on-chip jump-pointer table ablation"))
    elif name == "x2":
        print(format_table(creation_overhead(cfg, **sweep),
                           "X2 — jump-pointer creation overhead"))
        print()
        print(format_table(traversal_count_sweep(cfg, **sweep),
                           "X2 — traversal-count sensitivity (treeadd)"))
    _sweep_footer(executor)
    return 0


def _bounded(kind: type, low: float, *, strict: bool = False):
    """argparse type: ``kind(text)`` that must be >= ``low`` (> if strict)."""
    op = ">" if strict else ">="

    def parse(text: str):
        value = kind(text)
        if not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(f"must be {op} {low}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid float value" wording
    return parse


def _drill_plan(text: str) -> CorruptPlan:
    """argparse type for ``audit --inject-faults``."""
    try:
        return CorruptPlan.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Jump-pointer prefetching reproduction (Roth & Sohi, ISCA 1999)",
    )
    parser.add_argument("--table2", action="store_true",
                        help="use the paper's full-size Table-2 machine "
                             "instead of the scaled bench machine")
    parser.add_argument("--memory-latency", type=int, default=0,
                        help="override main-memory latency (cycles)")
    parser.add_argument("--interval", type=int, default=0,
                        help="override the hardware jump interval")
    sub = parser.add_subparsers(dest="command", required=True)

    lst = sub.add_parser("list", help="list the experiment-axis registries")
    lst.add_argument("what", nargs="?", default="all",
                     choices=("all", "machines", "schemes", "engines",
                              "workloads"),
                     help="one registry, or everything (default)")

    run = sub.add_parser("run", help="run one workload")
    run.add_argument("workload", choices=workload_names())
    run.add_argument("--scheme", choices=scheme_names(), default="base")
    run.add_argument("--all", action="store_true", help="run every scheme")
    run.add_argument("--idiom", default=None,
                     help="idiom for software/cooperative (default: paper's choice)")
    run.add_argument("--param", action="append", default=[],
                     metavar="KEY=VALUE", help="workload parameter override")
    run.add_argument("--small", action="store_true",
                     help="use the quick test-size parameters")

    stats = sub.add_parser(
        "stats",
        help="run with full telemetry; print tables or a JSON artifact",
    )
    stats.add_argument("workload", nargs="?", default="health",
                       choices=workload_names())
    stats.add_argument("--scheme", choices=scheme_names(), default=None,
                       help="restrict to one scheme (default: all five)")
    stats.add_argument("--idiom", default=None)
    stats.add_argument("--param", action="append", default=[],
                       metavar="KEY=VALUE")
    stats.add_argument("--small", action="store_true",
                       help="use the quick test-size parameters")
    stats.add_argument("--json", action="store_true",
                       help="emit the repro.stats/1 JSON artifact")
    stats.add_argument("-o", "--output", default=None,
                       help="write the artifact here instead of stdout")

    trace = sub.add_parser(
        "trace",
        help="run one scheme with event tracing; write a Chrome "
             "trace_event file for chrome://tracing",
    )
    trace.add_argument("workload", nargs="?", default="health",
                       choices=workload_names())
    trace.add_argument("--scheme", choices=scheme_names(), default="hardware")
    trace.add_argument("--idiom", default=None)
    trace.add_argument("--param", action="append", default=[],
                       metavar="KEY=VALUE")
    trace.add_argument("--small", action="store_true")
    trace.add_argument("--limit", type=_bounded(int, 0), default=1_000_000,
                       help="event-buffer cap (default 1M)")
    trace.add_argument("-o", "--output", default=None,
                       help="trace file path (default <workload>-<scheme>.trace.json)")

    spec_p = sub.add_parser(
        "run-spec",
        help="run a declarative experiment spec file (.toml or .json); "
             "see examples/specs/",
    )
    spec_p.add_argument("spec", help="path to the spec file")
    spec_p.add_argument("--machine", choices=machine_names(), default=None,
                        help="run on this named machine instead of the "
                             "spec's own")
    spec_p.add_argument("--small", action="store_true",
                        help="use every workload's quick test-size "
                             "parameters (spec params still win)")
    spec_p.add_argument("--set", action="append", default=[],
                        metavar="PATH=VALUE",
                        help="extra dotted-path machine override, e.g. "
                             "--set prefetch.jump_interval=4 (repeatable)")
    spec_p.add_argument("-o", "--output", default=None, metavar="FILE",
                        help="also write the repro.experiment/1 artifact "
                             "(rows + the spec that produced them)")

    tour = sub.add_parser(
        "tournament",
        help="race every scheme against every workload and rank them: "
             "per-cell outcome breakdowns plus the geomean-normalized "
             "summary (default spec: examples/specs/tournament.toml)",
    )
    tour.add_argument("spec", nargs="?", default=None,
                      help="tournament spec file (default: the shipped "
                           "examples/specs/tournament.toml)")
    tour.add_argument("--machine", choices=machine_names(), default=None,
                      help="run on this named machine instead of the "
                           "spec's own")
    tour.add_argument("--small", action="store_true",
                      help="use every workload's quick test-size "
                           "parameters (spec params still win)")
    tour.add_argument("--set", action="append", default=[],
                      metavar="PATH=VALUE",
                      help="extra dotted-path machine override "
                           "(repeatable)")
    tour.add_argument("-o", "--output", default=None, metavar="FILE",
                      help="also write the repro.experiment/1 artifact "
                           "(rows + ranked summary in meta)")

    audit = sub.add_parser(
        "audit",
        help="run the simulation auditor: invariant sweep over the "
             "workload/scheme matrix, differential fast-vs-reference "
             "interpreter validation, and the golden-drift fidelity gate",
    )
    audit.add_argument("--machine", choices=machine_names(), default="small",
                       help="named machine for the sweep (default: small)")
    audit.add_argument("--mshr-model", choices=list(MSHR_MODELS),
                       default=None, metavar="MODEL",
                       help="override the machine's MSHR model for the "
                            "invariant sweep and differential stats sample "
                            "(blocking | coalescing | full; default: the "
                            "machine's own setting)")
    audit.add_argument("--workloads", nargs="+", default=None,
                       choices=workload_names(), metavar="WORKLOAD",
                       help="restrict the invariant sweep (default: all)")
    audit.add_argument("--schemes", nargs="+", default=None, choices=scheme_names(),
                       metavar="SCHEME",
                       help="restrict the invariant sweep (default: all five)")
    audit.add_argument("--every", type=_bounded(int, 1),
                       default=512, metavar="N",
                       help="invariant-sweep cadence in commits (default: 512)")
    audit.add_argument("--golden", default=None, metavar="FILE",
                       help="golden pin file for the differential check and "
                            "fidelity gate (default: tests/golden_cycles.json)")
    audit.add_argument("--diff-sample", type=_bounded(int, 0),
                       default=2, metavar="N",
                       help="cells whose full timing stats are also diffed "
                            "on the reference path (default: 2)")
    audit.add_argument("--no-diff", action="store_true",
                       help="skip the differential interpreter validation")
    audit.add_argument("--no-gate", action="store_true",
                       help="skip the golden-drift fidelity gate")
    audit.add_argument("--strict", action="store_true",
                       help="raise on the first violation instead of "
                            "collecting a report")
    audit.add_argument("--inject-faults", type=_drill_plan, default=None,
                       metavar="PLAN",
                       help="corrupt-outcome drill plan, e.g. "
                            "'em3d//dbp=corrupt' — matched cells get a "
                            "deliberately broken outcome tracker that the "
                            "auditor must catch; a plan matching no cell "
                            "fails the audit")

    prof = sub.add_parser(
        "profile",
        help="run one scheme under the cycle-attribution profiler: "
             "CPI stack, ranked hot load sites, and per-level latency "
             "histograms, with conservation audited",
    )
    prof.add_argument("workload", nargs="?", default="health",
                      choices=workload_names())
    prof.add_argument("--scheme", choices=scheme_names(), default="hardware")
    prof.add_argument("--idiom", default=None,
                      help="idiom for software/cooperative (default: paper's choice)")
    prof.add_argument("--param", action="append", default=[],
                      metavar="KEY=VALUE")
    prof.add_argument("--small", action="store_true",
                      help="use the quick test-size parameters")
    prof.add_argument("--top", type=_bounded(int, 0),
                      default=10, metavar="N",
                      help="hot-site rows to print (default: 10)")
    prof.add_argument("--every", type=_bounded(int, 1),
                      default=512, metavar="N",
                      help="auditor cadence (commits) enforcing CPI-stack "
                           "conservation mid-run (default: 512)")
    prof.add_argument("--trace", default=None, metavar="FILE",
                      help="also write a Chrome trace with cpi_stack / "
                           "load_level counter tracks")
    prof.add_argument("--limit", type=_bounded(int, 0), default=1_000_000,
                      help="trace event-buffer cap (default 1M)")
    prof.add_argument("-o", "--output", default=None, metavar="FILE",
                      help="write the repro.profile/1 JSON artifact")

    bd = sub.add_parser(
        "bench-diff",
        help="signed per-metric drift between two layer-budget "
             "reports (BENCH_LAYERS.json); exits non-zero on regression "
             "(the CI perf gate)",
    )
    bd.add_argument("baseline", help="baseline report, e.g. BENCH_LAYERS.json")
    bd.add_argument("current", help="current report, e.g. a fresh "
                                    "benchmarks/layer_budget.py output")
    bd.add_argument("--tolerance", type=float, default=0.25, metavar="T",
                    help="relative band for wall-clock (lower) rules; "
                         "exact rules always require bit-identical "
                         "values (default: 0.25)")
    bd.add_argument("-o", "--output", default=None, metavar="FILE",
                    help="write the repro.bench_diff/1 JSON artifact")

    figure_help = {
        "x1": "extension: on-chip jump-pointer table ablation",
        "x2": "extension: creation overhead + traversal-count sweep",
    }
    for fig in ("table1", "figure4", "figure5", "figure6", "figure7", "x1",
                "x2", "run-spec", "tournament"):
        p = (sub.choices[fig] if fig in ("run-spec", "tournament")
             else sub.add_parser(
                 fig, help=figure_help.get(fig, f"reproduce {fig}")))
        p.add_argument("--jobs", type=_bounded(int, 0), default=1, metavar="N",
                       help="run sweep cells across N worker processes "
                            "(default: 1, serial; 0 = cgroup/affinity-"
                            "aware auto-detection)")
        p.add_argument("--no-cache", action="store_true",
                       help="do not read or write the on-disk result cache")
        p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="result cache location (default: $REPRO_CACHE_DIR "
                            "or .repro_cache)")
        p.add_argument("--progress", action="store_true",
                       help="narrate per-cell progress on stderr "
                            "(implied whenever more than one worker runs, "
                            "including --jobs 0 on a multi-CPU host)")
        p.add_argument("--timeout", type=_bounded(float, 0, strict=True), default=None, metavar="SEC",
                       help="per-cell wall-clock budget; a hung worker is "
                            "terminated and the cell becomes an error row")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return cmd_list(args)
        if args.command == "run":
            return cmd_run(args)
        if args.command == "stats":
            return cmd_stats(args)
        if args.command == "trace":
            return cmd_trace(args)
        if args.command in ("run-spec", "tournament"):
            return cmd_run_spec(args)
        if args.command == "audit":
            return cmd_audit(args)
        if args.command == "profile":
            return cmd_profile(args)
        if args.command == "bench-diff":
            return cmd_bench_diff(args)
        return cmd_figure(args)
    except SpecError as exc:
        raise SystemExit(f"error: {exc}") from None
    except ConfigError as exc:
        # A bad --set path / value is a usage error, not a crash.
        raise SystemExit(f"error: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
