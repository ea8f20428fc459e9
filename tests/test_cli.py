"""Command-line interface."""

import pytest

from repro.__main__ import _key_values, build_parser, main

from tests.conftest import shipped_spec


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "health" in out and "treeadd" in out and "spmv" in out
    # All four registries appear in the combined listing.
    for title in ("Machines", "Schemes", "Prefetch engines", "Workloads"):
        assert title in out


def test_run_small(capsys):
    assert main(["run", "power", "--small", "--scheme", "hardware"]) == 0
    out = capsys.readouterr().out
    assert "hardware" in out and "cycles" in out


def test_run_with_params_and_idiom(capsys):
    assert main([
        "run", "health", "--small", "--scheme", "software", "--idiom", "root",
        "--param", "iterations=2",
    ]) == 0
    out = capsys.readouterr().out
    assert "sw:root" in out


def test_machine_overrides(capsys):
    from repro import bench_config, get_machine
    from repro.harness import BenchmarkRunner
    from repro.workloads import workload_class

    assert main([
        "run", "treeadd", "--small", "--scheme", "hardware",
        "--set", "memory_latency=140", "--set", "prefetch.jump_interval=4",
    ]) == 0
    out = capsys.readouterr().out
    cfg = bench_config().with_memory_latency(140).with_jump_interval(4)
    run = BenchmarkRunner(
        "treeadd", cfg, workload_class("treeadd").test_params()
    ).run("hardware")
    assert f" {run.total} " in out
    # --machine picks the named machine the same way run-spec does.
    assert main(["run", "treeadd", "--small", "--machine", "small"]) == 0
    small = BenchmarkRunner(
        "treeadd", get_machine("small"), workload_class("treeadd").test_params()
    ).run("base")
    assert f" {small.total} " in capsys.readouterr().out


def test_parse_params_types():
    # One KEY=VALUE parser serves --param and --set alike.
    assert _key_values(["a=1", "b=1.5", "c=x", "d=True", "e=false"],
                       "--param") == {
        "a": 1, "b": 1.5, "c": "x", "d": True, "e": False}
    with pytest.raises(SystemExit, match="--set expects KEY=VALUE"):
        _key_values(["oops"], "--set")


def test_run_title_names_machine(capsys):
    assert main(["run", "treeadd", "--small"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "treeadd on bench"
    assert main(["run", "treeadd", "--small", "--machine", "small"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "treeadd on small"


def test_run_declares_one_option_set():
    # run is the only single-run command: its observers are flags.
    parser = build_parser()
    run = parser._subparsers._group_actions[0].choices["run"]
    declared = [a.dest for a in run._actions if a.dest != "help"]
    assert sorted(declared) == sorted([
        "workload", "scheme", "all", "idiom", "param", "small", "machine",
        "set", "output", "trace", "telemetry", "profile"])


def test_unknown_workload_param_is_clean_error(tmp_path, capsys):
    import json

    from repro import WorkloadError, get_workload

    with pytest.raises(WorkloadError, match=r"levelz.*valid:.*levels"):
        get_workload("treeadd", levelz=3)
    with pytest.raises(SystemExit) as exc:
        main(["run", "treeadd", "--small", "--param", "levelz=3"])
    assert str(exc.value.code).startswith("error:")
    base = {"name": "t", "schemes": ["base"],
            "columns": ["benchmark", "scheme", "total"]}
    for doc in (
        {**base, "workloads": [{"name": "treeadd",
                                "params": {"levelz": 3}}]},
        {**base, "workloads": ["treeadd"],
         "axes": [{"name": "n", "values": [3], "set": ["params.levelz"]}]},
    ):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main(["run-spec", str(path), "--small", "--no-cache"])
        message = str(exc.value.code)
        assert message.startswith("error:") and "\n" not in message
        assert "levelz" in message and "levels" in message


def test_unknown_workload_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "nope"])


def test_figure_commands_parse():
    # The paper's figures run as their shipped spec files; the former
    # per-figure subcommands and global machine flags are gone.
    parser = build_parser()
    for fig in ("table1", "figure4", "figure5", "figure6", "figure7",
                "x1", "x2"):
        args = parser.parse_args(["run-spec", f"examples/specs/{fig}.toml"])
        assert args.command == "run-spec"
        with pytest.raises(SystemExit):
            parser.parse_args([fig])
    # Machines are chosen per command (--machine/--set), not globally.
    assert [a.option_strings for a in parser._actions
            if a.option_strings] == [["-h", "--help"]]


def test_list_single_registry(capsys):
    assert main(["list", "machines"]) == 0
    out = capsys.readouterr().out
    assert "table2" in out and "bench" in out and "small" in out
    assert "health" not in out  # workloads not printed for one registry

    assert main(["list", "schemes"]) == 0
    out = capsys.readouterr().out
    for scheme in ("base", "software", "cooperative", "hardware", "dbp"):
        assert scheme in out

    assert main(["list", "engines"]) == 0
    assert "engine" in capsys.readouterr().out


def _write_spec(tmp_path, spec):
    import json

    path = tmp_path / f"{spec.name}.json"
    path.write_text(json.dumps(spec.to_dict()))
    return path


def test_run_spec_end_to_end(tmp_path, capsys):
    import json

    path = _write_spec(tmp_path, shipped_spec("figure5", ("treeadd",)))
    out_file = tmp_path / "f5.json"
    assert main(["run-spec", str(path), "--machine", "small", "--small",
                 "--no-cache", "-o", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "treeadd" in out
    for scheme in ("base", "software", "cooperative", "hardware", "dbp"):
        assert scheme in out
    # A Figure-5 shaped spec also prints (and records) the memory-bound
    # averages.
    assert "Memory-bound averages" in out
    summary = json.loads(out_file.read_text())["meta"]["summary"]
    assert {r["scheme"] for r in summary} == {
        "software", "cooperative", "hardware", "dbp"}


def _tiny_spec():
    """treeadd at test size under base and hardware: three cells."""
    from repro.harness import ExperimentSpec, WorkloadSel
    from repro.workloads import workload_class

    return ExperimentSpec(
        name="tiny", title="Tiny",
        workloads=(WorkloadSel(
            "treeadd", params=workload_class("treeadd").test_params()),),
        schemes=("base", "hardware"),
        columns=("benchmark", "scheme", "total", "normalized"),
    )


def test_run_spec_artifact_and_set(tmp_path, capsys):
    import json

    out_file = tmp_path / "result.json"
    assert main(["run-spec", str(_write_spec(tmp_path, _tiny_spec())),
                 "--machine", "small", "--set", "memory_latency=140",
                 "--cache-dir", str(tmp_path / "cache"),
                 "-o", str(out_file)]) == 0
    doc = json.loads(out_file.read_text())
    assert doc["schema"] == "repro.experiment/1"
    assert doc["spec"]["overrides"] == {"memory_latency": 140}
    assert doc["meta"]["machine"] == "small"  # --machine lands in the spec
    assert "summary" not in doc["meta"]  # not a Figure-5 or tournament spec
    assert len(doc["rows"]) == 2
    assert doc["rows"][0]["scheme"] == "base"
    assert doc["rows"][0]["normalized"] == 1.0


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_run_spec_unwritable_cache_keeps_results(
    tmp_path, capsys, caplog, jobs
):
    """A cache root that cannot be written (here a regular file) costs
    only the reuse: the sweep finishes with the uncached rows, warns
    once, and counts every lost store on ``cache.write_errors``."""
    import re

    path = str(_write_spec(tmp_path, _tiny_spec()))
    common = ["run-spec", path, "--machine", "small", "--jobs", jobs]
    assert main([*common, "--no-cache"]) == 0
    clean = capsys.readouterr().out

    blocker = tmp_path / "ro"
    blocker.write_text("x")
    with caplog.at_level("WARNING", logger="repro.harness.executor"):
        assert main([*common, "--cache-dir", str(blocker)]) == 0
    captured = capsys.readouterr()
    warned = [r for r in caplog.records if r.name == "repro.harness.executor"]
    assert len(warned) == 1 and "not writable" in warned[0].getMessage()
    assert captured.out == clean
    cells = int(re.search(r"over (\d+) distinct cells", captured.err)[1])
    footer = re.search(r"(\d+) writes, (\d+) write errors", captured.err)
    assert footer and footer.groups() == ("0", str(cells))
    assert blocker.read_text() == "x"


def test_run_spec_bad_file_is_clean_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    with pytest.raises(SystemExit, match="error:"):
        main(["run-spec", str(bad), "--no-cache"])


def test_run_spec_out_of_range_set_is_clean_error(tmp_path):
    spec = shipped_spec("figure5", ("treeadd",))
    with pytest.raises(SystemExit) as exc:
        main(["run-spec", str(_write_spec(tmp_path, spec)), "--small",
              "--no-cache", "--set", "memory_latency=-40"])
    message = str(exc.value.code)
    assert message.startswith("error:") and "\n" not in message
    assert "memory_latency" in message


def test_removed_prefetch_knob_is_clean_error(capsys):
    # The chase budget models the DBP query and JPR access rates; a
    # --set of either rate is an unknown config path, not a no-op.
    for knob in ("dep_queries_per_cycle", "jpr_accesses_per_cycle"):
        with pytest.raises(SystemExit) as exc:
            main(["run", "treeadd", "--small",
                  "--set", f"prefetch.{knob}=1"])
        message = str(exc.value.code)
        assert message.startswith("error:") and "\n" not in message
        assert knob in message
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("key,value", [
    ("workloads", ["treead"]),
    ("schemes", ["hardwar"]),
])
def test_run_spec_typo_is_clean_error(tmp_path, key, value):
    import json

    doc = {"name": "t", "workloads": ["treeadd"], "schemes": ["base"],
           "columns": ["benchmark", "scheme", "total"], key: value}
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(["run-spec", str(path), "--no-cache"])
    message = str(exc.value.code)
    assert message.startswith("error:") and "\n" not in message
    assert value[0] in message


def test_stats_text(capsys):
    assert main(["run", "health", "--small", "--scheme", "hardware",
                 "--telemetry"]) == 0
    out = capsys.readouterr().out
    assert "Prefetch outcomes" in out
    assert "Demand miss latency" in out
    assert "timely" in out and "dropped" in out


def test_stats_json_artifact(tmp_path, capsys):
    import json

    out = tmp_path / "run.json"
    assert main(["run", "health", "--small", "--all", "--telemetry",
                 "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "repro.experiment/1"
    from repro.harness import SCHEMES

    # --all is the paper five; zoo engines run one at a time by name.
    assert set(doc["meta"]["runs"]) == set(SCHEMES)
    hw = doc["meta"]["runs"]["hardware"]["result"]
    assert set(hw["telemetry"]["prefetch_outcomes"]["counts"]) == {
        "timely", "late", "early-evicted", "useless", "dropped",
    }
    miss_latency = hw["telemetry"]["metrics"]["mem.miss_latency_cycles"]
    assert miss_latency["type"] == "histogram"
    assert hw["cycles"] > 0
    assert [r["scheme"] for r in doc["rows"]] == list(SCHEMES)


def test_stats_json_to_file(tmp_path, capsys):
    import json

    out = tmp_path / "stats.json"
    assert main(["run", "health", "--small", "--scheme", "base",
                 "--machine", "small", "--set", "memory_latency=140",
                 "--telemetry", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "repro.experiment/1"
    assert list(doc["meta"]["runs"]) == ["base"]
    assert doc["spec"]["machine"] == "small"
    assert doc["spec"]["overrides"] == {"memory_latency": 140}
    assert doc["spec"]["telemetry"] is True
    assert f"wrote {out}" in capsys.readouterr().out


def test_run_artifact_spec_reruns_rows(tmp_path, capsys):
    import json

    from repro.harness import ExperimentSpec, compile_spec

    out = tmp_path / "run.json"
    assert main(["run", "health", "--small", "--all", "--idiom", "root",
                 "--param", "iterations=2", "--machine", "small",
                 "--set", "memory_latency=140", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    spec = ExperimentSpec.from_dict(doc["spec"])
    assert compile_spec(spec).execute() == doc["rows"]
    assert doc["rows"][1]["variant"] == "sw:root"


def test_run_trace_with_all_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "health", "--small", "--all",
              "--trace", str(tmp_path / "t.json")])
    assert exc.value.code == 2
    assert "--trace" in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()


def test_trace_writes_chrome_file(tmp_path, capsys):
    import json

    out = tmp_path / "t.trace.json"
    assert main(["run", "health", "--small", "--scheme", "hardware",
                 "--trace", str(out)]) == 0
    doc = json.loads(out.read_text())
    events = doc["traceEvents"]
    assert any(e["name"] == "load-issue" for e in events)
    assert any(e["name"] == "demand-miss" for e in events)
    assert "wrote" in capsys.readouterr().out


def test_negative_jobs_is_usage_error(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run-spec", "s.toml", "--jobs", "-1"])
    assert "--jobs" in capsys.readouterr().err
    args = build_parser().parse_args(["run-spec", "s.toml", "--jobs", "0"])
    assert args.jobs == 0


@pytest.mark.parametrize("command,flag,bad,edge,kind", [
    # This case ran on the removed ``tournament`` subcommand; its id is
    # kept now that it runs on run-spec.
    pytest.param("run-spec s.toml", "--timeout", "0", "0.5", float,
                 id="tournament---timeout-0-0.5-float"),
    ("audit", "--every", "0", "1", int),
    ("audit", "--diff-sample", "-1", "0", int),
])
def test_out_of_range_retry_policy_is_usage_error(
    capsys, command, flag, bad, edge, kind
):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([*command.split(), flag, bad])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    args = build_parser().parse_args([*command.split(), flag, edge])
    assert getattr(args, flag.lstrip("-").replace("-", "_")) == kind(edge)


@pytest.mark.parametrize("cpus,narrates", [(1, False), (4, True)])
def test_jobs_zero_narrates_by_resolved_worker_count(
    monkeypatch, cpus, narrates
):
    from repro.__main__ import _build_executor
    from repro.harness import executor as executor_module

    monkeypatch.setattr(executor_module, "detect_cpus", lambda: cpus)
    args = build_parser().parse_args(
        ["run-spec", "s.toml", "--jobs", "0", "--no-cache"])
    executor = _build_executor(args)
    assert executor.jobs == cpus
    assert (executor.progress is not None) is narrates


@pytest.mark.parametrize("argv", [
    ["serve", "/tmp/p.sock"],
    ["submit", "spec.toml"],
    ["run-spec", "spec.toml", "--backend", "process"],
    ["run-spec", "spec.toml", "--pool", "/tmp/p.sock"],
    ["run-spec", "spec.toml", "--pool-wait", "5"],
    ["run-spec", "spec.toml", "--resume"],
    ["run-spec", "spec.toml", "--journal", "x"],
    ["run-spec", "spec.toml", "--retries", "1"],
    ["run-spec", "spec.toml", "--backoff", "1"],
    ["run-spec", "spec.toml", "--inject-faults", "x=crash"],
    ["--engine", "reference", "run", "treeadd", "--small"],
    ["list", "sim-engines"],
    ["stats", "health", "--small"],
    ["trace", "health", "--small"],
    ["profile", "health", "--small"],
    ["tournament"],
])
def test_removed_sweep_service_options_rejected(argv):
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
