"""Command-line interface: run the paper's experiments and single configs.

Every paper table and figure is a spec file under ``examples/specs/``
(``table1``, ``figure4``–``figure7``, ``x1``–``x4``, ``x2-passes``,
``mshr``, ``tournament``), run with ``run-spec``; a tournament spec
also prints its ranked summary.  ``run`` is the one single-run command:
``--telemetry``, ``--profile`` and ``--trace FILE`` attach its
observers, and ``-o`` writes the same ``repro.experiment/1`` artifact as
``run-spec -o``, whose embedded spec ``run-spec`` reruns.
``--machine NAME`` and ``--set PATH=VALUE`` choose the machine for
``run`` and ``run-spec`` alike.

Examples::

    python -m repro list                         # every registry at a glance
    python -m repro list machines                # ... or one registry
    python -m repro run health --scheme hardware # one benchmark, one scheme
    python -m repro run health --all             # full Figure-5 row
    python -m repro run health --machine table2 --set memory_latency=280
    python -m repro run treeadd --scheme software --param levels=9 --param passes=2
    python -m repro run health --small --all --telemetry -o health.json
    python -m repro run health --scheme hardware --profile  # CPI stack + hot sites
    python -m repro run em3d --small --scheme hardware --profile --trace em3d.trace.json
    python -m repro run-spec examples/specs/table1.toml   # characterization
    python -m repro run-spec examples/specs/figure5.toml --jobs 4
    python -m repro run-spec examples/specs/figure7.toml --no-cache
    python -m repro run-spec examples/specs/figure5.toml --timeout 300
    python -m repro run-spec examples/specs/figure5.toml  # after Ctrl-C: resumes
    python -m repro run-spec examples/specs/x1.toml --small --machine small
    python -m repro run-spec mysweep.toml --small -o result.json
    python -m repro run-spec examples/specs/tournament.toml --small --jobs 4
    python -m repro run-spec examples/specs/tournament.toml --machine small -o t.json
    python -m repro audit --machine small        # full simulation audit
    python -m repro audit --inject-faults 'em3d//dbp=corrupt'  # auditor drill
    python -m repro bench-diff BENCH_LAYERS.json layers.json --tolerance 1.5
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import workload_names
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
from .errors import ReproError
from .harness import (
    SCHEMES,
    scheme_names,
    BenchmarkRunner,
    ExperimentSpec,
    ResultCache,
    SCHEME_REGISTRY,
    SweepExecutor,
    WorkloadSel,
    compile_spec,
    figure5_summary,
    format_table,
    is_tournament_spec,
    load_spec,
    spec_artifact,
    spec_row,
    tournament_summary,
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


def _key_values(items: list[str], flag: str) -> dict:
    """``KEY=VALUE`` items of ``--param``/``--set`` as a mapping; each
    value is a boolean (``true``/``false``), an int, a float, or else the
    string itself."""
    out = {}
    for item in items:
        key, sep, text = item.partition("=")
        if not sep:
            raise SystemExit(f"{flag} expects KEY=VALUE, got {item!r}")
        if text.lower() in ("true", "false"):
            out[key] = text.lower() == "true"
            continue
        for kind in (int, float):
            try:
                out[key] = kind(text)
                break
            except ValueError:
                pass
        else:
            out[key] = text
    return out


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


#: The columns ``run`` prints, each a :data:`repro.harness.spec.METRICS`
#: entry, so ``run`` and ``run-spec`` share one row definition.
_RUN_COLUMNS = ("scheme", "variant", "cycles", "compute", "memory",
                "normalized", "ipc")

def _run_spec(args) -> ExperimentSpec:
    """The one-workload experiment the ``run`` command line describes;
    ``run-spec`` on it reruns the same cells."""
    machine = args.machine or "bench"
    spec = ExperimentSpec(
        name=f"run-{args.workload}",
        title=f"{args.workload} on {machine}",
        machine=machine,
        overrides=_key_values(args.set, "--set"),
        workloads=(WorkloadSel(args.workload,
                               params=_key_values(args.param, "--param"),
                               idiom=args.idiom),),
        schemes=SCHEMES if args.all else (args.scheme,),
        columns=_RUN_COLUMNS,
        telemetry=args.telemetry,
        profile=args.profile,
    )
    return spec.small() if args.small else spec


def _print_telemetry(runs: dict) -> None:
    """Per-scheme prefetch-outcome and demand-miss-latency tables."""
    outcome_rows = []
    for scheme, run in runs.items():
        counts = run.result.telemetry["prefetch_outcomes"]["counts"]
        if sum(counts.values()):
            outcome_rows.append({"scheme": scheme, **counts})
    if outcome_rows:
        print()
        print(format_table(outcome_rows, "Prefetch outcomes"))
    hist_rows = []
    for scheme, run in runs.items():
        hist = run.result.telemetry["metrics"]["mem.miss_latency_cycles"]
        row = {"scheme": scheme, "misses": hist["count"],
               "mean": round(hist["mean"], 1)}
        for b in hist["buckets"]:
            label = f"<={b['le']}" if b["le"] is not None else "inf"
            row[label] = b["count"]
        hist_rows.append(row)
    print()
    print(format_table(hist_rows, "Demand miss latency (cycles)"))


def _print_profile(workload: str, run, auditor: Auditor) -> bool:
    """CPI stack, top-10 hot load sites, per-level latency and the audit
    verdict of one profiled run; False when the audit found violations."""
    profile = run.result.profile
    print()
    print(format_table(
        cpi_stack_rows(profile),
        f"{workload}/{run.scheme} — CPI stack over {run.total} cycles",
    ))
    hot = hot_site_rows(profile, top=10)
    print()
    if hot:
        print(format_table(hot, "Hot load sites (top 10 by stall cycles)"))
    else:
        print("Hot load sites: none (no linked-data loads stalled commit).")
    lat = latency_rows(profile)
    if lat:
        print()
        print(format_table(lat, "Load latency by hierarchy level (cycles)"))
    if not auditor.ok:
        for v in auditor.violations[:8]:
            print(f"  VIOLATION: {v.describe()}", file=sys.stderr)
        print(f"\nprofile audit FAILED: {auditor.violation_count} "
              f"violation(s)", file=sys.stderr)
        return False
    print(f"\nprofile audit OK: {auditor.checks} sweeps, CPI-stack buckets "
          f"sum to {run.total} cycles")
    return True


def cmd_run(args) -> int:
    """One workload under one scheme (or all five), in process, with the
    requested observers attached; ``-o`` writes ``repro.experiment/1``."""
    spec = _run_spec(args)
    sel = spec.workloads[0]
    cfg = get_machine(spec.machine).with_overrides(spec.overrides)
    runner = BenchmarkRunner(sel.name, cfg, sel.params)
    trace = EventTrace() if args.trace else None
    observed = args.telemetry or args.profile or trace is not None
    auditors: dict[str, Auditor] = {}

    def run(scheme: str):
        if args.profile:
            auditors[scheme] = Auditor(interval=512)
        return runner.run(
            scheme, sel.idiom,
            telemetry=Telemetry(trace=trace) if observed else None,
            profile=Profiler() if args.profile else None,
            audit=auditors.get(scheme),
        )

    base = run("base") if "base" in spec.schemes else runner.run("base")
    runs = {s: base if s == "base" else run(s) for s in spec.schemes}
    rows = [spec_row(spec, s, r, base, sel.name) for s, r in runs.items()]
    print(format_table(rows, spec.title))
    if args.telemetry:
        _print_telemetry(runs)
    audits_ok = True
    for scheme, auditor in auditors.items():
        audits_ok &= _print_profile(sel.name, runs[scheme], auditor)
    if trace is not None:
        trace.dump(args.trace)
        print(f"\nwrote {args.trace}: {len(trace)} events "
              f"({trace.dropped} dropped past the {trace.limit:,}-event "
              "cap); open in chrome://tracing")
    if args.output:
        meta = {"runs": {s: r.to_dict(baseline_total=base.total)
                         for s, r in runs.items()}}
        dump_json(spec_artifact(spec, rows, meta=meta), args.output)
        print(f"wrote {args.output}")
    return 0 if audits_ok else 1


def _build_executor(args) -> SweepExecutor:
    """--jobs/--cache/--timeout plumbing shared by the sweep commands.  One
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


#: A spec with these columns and no axes is Figure-5 shaped: its run
#: also prints the paper's memory-bound averages.
_FIGURE5_COLUMNS = {"benchmark", "scheme", "normalized", "mem_reduction%"}

def cmd_run_spec(args) -> int:
    spec = load_spec(args.spec)
    if args.machine:
        spec = spec.with_machine(args.machine)
    if args.small:
        spec = spec.small()
    if args.set:
        spec = replace(spec, overrides={**spec.overrides,
                                        **_key_values(args.set, "--set")})
    executor = _build_executor(args)
    compiled = compile_spec(spec)
    print(f"  {args.spec}: {len(compiled.rows)} rows over "
          f"{compiled.cell_count} distinct cells", file=sys.stderr)
    rows = compiled.execute(executor=executor)
    print(format_table(rows, spec.title or spec.name))
    summary = None
    if is_tournament_spec(spec):
        summary = tournament_summary(rows, label_key=spec.label_key)
        title = ("Tournament — schemes ranked by geomean normalized time "
                 "(lower is better)")
    elif not spec.axes and _FIGURE5_COLUMNS <= set(spec.columns):
        summary = figure5_summary(rows)
        title = "Memory-bound averages"
    if summary is not None:
        print()
        print(format_table(summary, title))
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
    sub = parser.add_subparsers(dest="command", required=True)

    # One machine choice for every command that simulates.
    machine_opts = argparse.ArgumentParser(add_help=False)
    machine_opts.add_argument(
        "--machine", choices=machine_names(), default=None,
        help="named machine (default: the spec's own; bench for single runs)")
    machine_opts.add_argument(
        "--set", action="append", default=[], metavar="PATH=VALUE",
        help="dotted-path machine override, e.g. --set memory_latency=280 "
             "or --set prefetch.jump_interval=4 (repeatable)")

    lst = sub.add_parser("list", help="list the experiment-axis registries")
    lst.add_argument("what", nargs="?", default="all",
                     choices=("all", "machines", "schemes", "engines",
                              "workloads"),
                     help="one registry, or everything (default)")

    run = sub.add_parser(
        "run", parents=[machine_opts],
        help="run one workload under one scheme (or all five), with "
             "optional telemetry, profiler and trace observers",
    )
    run.add_argument("workload", choices=workload_names())
    run.add_argument("--scheme", choices=scheme_names(), default="base")
    run.add_argument("--all", action="store_true", help="run every scheme")
    run.add_argument("--idiom", default=None,
                     help="idiom for software/cooperative (default: paper's choice)")
    run.add_argument("--param", action="append", default=[],
                     metavar="KEY=VALUE", help="workload parameter override")
    run.add_argument("--small", action="store_true",
                     help="use the quick test-size parameters")
    run.add_argument("--telemetry", action="store_true",
                     help="also print prefetch-outcome and demand-miss-"
                          "latency tables")
    run.add_argument("--profile", action="store_true",
                     help="also print the CPI stack, top-10 hot load sites "
                          "and per-level latency; CPI-stack conservation "
                          "is audited every 512 commits (exit 1 on a "
                          "violation)")
    run.add_argument("--trace", default=None, metavar="FILE",
                     help="write a Chrome trace of the run (one scheme; "
                          "capped at 1M events)")
    run.add_argument("-o", "--output", default=None, metavar="FILE",
                     help="write the repro.experiment/1 artifact (rows, "
                          "the spec that reruns them, each run in meta)")

    spec_p = sub.add_parser(
        "run-spec", parents=[machine_opts],
        help="run a declarative experiment spec file (.toml or .json); "
             "see examples/specs/ (a tournament spec also prints its "
             "ranked summary)",
    )
    spec_p.add_argument("spec", help="path to the spec file")
    spec_p.add_argument("--small", action="store_true",
                        help="use every workload's quick test-size "
                             "parameters (spec params still win)")
    spec_p.add_argument("-o", "--output", default=None, metavar="FILE",
                        help="also write the repro.experiment/1 artifact "
                             "(rows + the spec that produced them)")
    spec_p.add_argument("--jobs", type=_bounded(int, 0), default=1,
                        metavar="N",
                        help="run sweep cells across N worker processes "
                             "(default: 1, serial; 0 = cgroup/affinity-"
                             "aware auto-detection)")
    spec_p.add_argument("--no-cache", action="store_true",
                        help="do not read or write the on-disk result cache")
    spec_p.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result cache location (default: "
                             "$REPRO_CACHE_DIR or .repro_cache)")
    spec_p.add_argument("--progress", action="store_true",
                        help="narrate per-cell progress on stderr "
                             "(implied whenever more than one worker runs, "
                             "including --jobs 0 on a multi-CPU host)")
    spec_p.add_argument("--timeout", type=_bounded(float, 0, strict=True),
                        default=None, metavar="SEC",
                        help="per-cell wall-clock budget; a hung worker is "
                             "terminated and the cell becomes an error row")

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
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run" and args.trace and args.all:
        parser.error("run --trace records one scheme; use --scheme, not --all")
    try:
        if args.command == "list":
            return cmd_list(args)
        if args.command == "run":
            return cmd_run(args)
        if args.command == "run-spec":
            return cmd_run_spec(args)
        if args.command == "audit":
            return cmd_audit(args)
        return cmd_bench_diff(args)
    except ReproError as exc:
        # A bad spec, workload, scheme or --set value is a usage error,
        # not a crash.
        raise SystemExit(f"error: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
