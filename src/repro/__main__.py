"""Command-line interface: run the paper's experiments and single configs.

Every paper table and figure is a spec file under ``examples/specs/``
(``table1``, ``figure4``–``figure7``, ``x1``, ``x2``, ``x2-passes``,
``x4``, ``mshr``, ``tournament``), run with ``run-spec``; a tournament spec
also prints its ranked summary.  ``run`` is the one single-run command:
``--telemetry``, ``--profile`` and ``--trace FILE`` attach its
observers, and ``-o`` writes the same ``repro.experiment/1`` artifact as
``run-spec -o``, whose embedded spec ``run-spec`` reruns.
``--machine NAME`` and ``--set PATH=VALUE`` choose the machine for
``run``, ``run-spec`` and ``audit`` alike.  A sweep cell whose program
never halts becomes an error row once the interpreter's instruction
budget runs out; there is no wall-clock limit.

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
    python -m repro run-spec examples/specs/figure5.toml  # after Ctrl-C: resumes
    python -m repro run-spec examples/specs/x1.toml --small --machine small
    python -m repro run-spec mysweep.toml --small -o result.json
    python -m repro run-spec examples/specs/tournament.toml --small --jobs 4
    python -m repro run-spec examples/specs/tournament.toml --machine small -o t.json
    python -m repro audit --machine small        # invariant sweep + differential check
    python -m repro audit --set mshr_model=coalescing
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import workload_names
from .audit import Auditor, audit_workloads, differential_check
from .audit.gate import AUDIT_INTERVAL
from .config import get_machine, machine_names
from .errors import ReproError
from .harness import (
    SCHEMES,
    scheme_names,
    CellResult,
    ExperimentSpec,
    ResultCache,
    SCHEME_REGISTRY,
    SweepExecutor,
    SweepResults,
    WorkloadSel,
    compile_spec,
    figure5_summary,
    format_table,
    is_tournament_spec,
    load_spec,
    simulate_cell,
    spec_artifact,
    tournament_summary,
)
from .harness.spec import assemble_rows
from .obs import (
    EventTrace,
    Telemetry,
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
    compiled = compile_spec(spec)
    # Observers attach to the shown schemes' timing cells only.
    shown = {rp.run.timing: rp.label for rp in compiled.rows}
    trace = EventTrace() if args.trace else None
    observed = args.telemetry or args.profile or trace is not None
    auditors: dict[str, Auditor] = {}
    cells = {}
    for cell in compiled.plan.cells():
        telemetry = audit = None
        if cell in shown:
            if observed:
                telemetry = Telemetry(trace=trace)
            if args.profile:
                audit = auditors[shown[cell]] = Auditor(interval=AUDIT_INTERVAL)
        cells[cell] = CellResult(cell, simulate_cell(
            cell, telemetry=telemetry, audit=audit))
    results = SweepResults(cells)
    rows = assemble_rows(spec, compiled.rows, results)
    runs = {rp.label: results.scheme_run(rp.run) for rp in compiled.rows}
    base = results.scheme_run(compiled.rows[0].base)
    print(format_table(rows, spec.title))
    if args.telemetry:
        _print_telemetry(runs)
    audits_ok = True
    for scheme, auditor in auditors.items():
        audits_ok &= _print_profile(spec.workloads[0].name, runs[scheme],
                                    auditor)
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
    """--jobs/--cache plumbing shared by the sweep commands."""
    executor = SweepExecutor(
        jobs=args.jobs,
        cache=None if args.no_cache else ResultCache(args.cache_dir),
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
    """Invariant sweep + differential validation; ``--workloads`` selects
    both, ``--schemes`` the sweep, and ``--set`` applies to the sweep and
    the differential stats sample."""
    failures = 0
    machine = args.machine or "small"
    overrides = _key_values(args.set, "--set")

    cells = audit_workloads(
        machine=machine,
        workloads=args.workloads or None,
        schemes=args.schemes or None,
        overrides=overrides,
    )
    print(format_table(
        [c.row() for c in cells],
        f"Invariant sweep — {machine} machine, every {AUDIT_INTERVAL} commits",
    ))
    for cell in cells:
        if not cell.ok:
            failures += 1
            for v in cell.violations[:4]:
                print(f"  VIOLATION: {cell.benchmark}/{cell.scheme} "
                      f"{v.describe()}", file=sys.stderr)

    diff_rows = differential_check(machine=machine,
                                   workloads=args.workloads or None,
                                   overrides=overrides)
    print()
    print(format_table(
        [{k: row[k] for k in ("workload", "variant", "mode", "ok",
                              "divergence")}
         for row in diff_rows],
        "Differential validation — fast vs reference interpreter",
    ))
    for row in diff_rows:
        if not row["ok"]:
            failures += 1
            for line in row["stat_diffs"]:
                print(f"  STAT DIFF: {row['workload']}/{row['variant']}: "
                      f"{line}", file=sys.stderr)

    if failures:
        print(f"\naudit FAILED: {failures} problem(s)", file=sys.stderr)
        return 1
    print("\naudit OK")
    return 0


def _bounded(kind: type, low: int):
    """argparse type: ``kind(text)`` that must be >= ``low``."""

    def parse(text: str):
        value = kind(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value" wording
    return parse


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
        help="named machine (default: the spec's own for run-spec, bench "
             "for run, small for audit)")
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
    run.add_argument("--all", action="store_true",
                     help="run the paper's five schemes (zoo schemes run "
                          "only when named with --scheme)")
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

    audit = sub.add_parser(
        "audit", parents=[machine_opts],
        help="run the simulation auditor: invariant sweep over the "
             "workload/scheme matrix and differential fast-vs-reference "
             "interpreter validation over every variant of the selected "
             "workloads (--set applies to the sweep and the differential "
             "stats sample)",
    )
    audit.add_argument("--workloads", nargs="+", default=None,
                       choices=workload_names(), metavar="WORKLOAD",
                       help="restrict the invariant sweep and the "
                            "differential check (default: all)")
    audit.add_argument("--schemes", nargs="+", default=None, choices=scheme_names(),
                       metavar="SCHEME",
                       help="restrict the invariant sweep (default: every "
                            "registered scheme, paper and zoo)")

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
        return cmd_audit(args)
    except ReproError as exc:
        # A bad spec, workload, scheme or --set value is a usage error,
        # not a crash.
        raise SystemExit(f"error: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
