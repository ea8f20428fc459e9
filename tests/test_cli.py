"""Command-line interface."""

import pytest

from repro.__main__ import _parse_params, build_parser, main


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
    assert main([
        "--memory-latency", "140", "--interval", "4",
        "run", "treeadd", "--small",
    ]) == 0


def test_parse_params_types():
    assert _parse_params(["a=1", "b=1.5", "c=x"]) == {"a": 1, "b": 1.5, "c": "x"}
    with pytest.raises(SystemExit):
        _parse_params(["oops"])


def test_unknown_workload_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "nope"])


def test_figure_commands_parse():
    parser = build_parser()
    for fig in ("table1", "figure4", "figure5", "figure6", "figure7"):
        args = parser.parse_args([fig])
        assert args.command == fig


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
    from repro.harness import figure5_spec

    spec = figure5_spec(benchmarks=("treeadd",))
    path = _write_spec(tmp_path, spec)
    assert main(["run-spec", str(path), "--machine", "small", "--small",
                 "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "treeadd" in out
    for scheme in ("base", "software", "cooperative", "hardware", "dbp"):
        assert scheme in out


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
    from repro.harness import figure5_spec

    spec = figure5_spec(benchmarks=("treeadd",))
    with pytest.raises(SystemExit) as exc:
        main(["run-spec", str(_write_spec(tmp_path, spec)), "--small",
              "--no-cache", "--set", "memory_latency=-40"])
    message = str(exc.value.code)
    assert message.startswith("error:") and "\n" not in message
    assert "memory_latency" in message


def test_stats_text(capsys):
    assert main(["stats", "health", "--small", "--scheme", "hardware"]) == 0
    out = capsys.readouterr().out
    assert "Prefetch outcomes" in out
    assert "Demand miss latency" in out
    assert "timely" in out and "dropped" in out


def test_stats_json_artifact(capsys):
    import json

    assert main(["stats", "health", "--small", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "repro.stats/1"
    from repro.harness import SCHEMES

    # Default stats matrix is the paper five; zoo engines opt in by name.
    assert set(doc["engines"]) == set(SCHEMES)
    hw = doc["engines"]["hardware"]
    assert set(hw["prefetch_outcomes"]) == {
        "timely", "late", "early-evicted", "useless", "dropped",
    }
    assert hw["miss_latency"]["type"] == "histogram"
    assert doc["runs"]["hardware"]["result"]["cycles"] > 0


def test_stats_json_to_file(tmp_path, capsys):
    import json

    out = tmp_path / "stats.json"
    assert main(["stats", "health", "--small", "--scheme", "base",
                 "--json", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "repro.stats/1"
    assert list(doc["engines"]) == ["base"]


def test_trace_writes_chrome_file(tmp_path, capsys):
    import json

    out = tmp_path / "t.trace.json"
    assert main(["trace", "health", "--small", "--scheme", "hardware",
                 "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    events = doc["traceEvents"]
    assert any(e["name"] == "load-issue" for e in events)
    assert any(e["name"] == "demand-miss" for e in events)
    assert "wrote" in capsys.readouterr().out


def test_negative_jobs_is_usage_error(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figure5", "--jobs", "-1"])
    assert "--jobs" in capsys.readouterr().err
    assert build_parser().parse_args(["figure5", "--jobs", "0"]).jobs == 0


@pytest.mark.parametrize("command,flag,bad,edge,kind", [
    ("figure7", "--timeout", "0", "0.5", float),
    ("audit", "--every", "0", "1", int),
    ("audit", "--diff-sample", "-1", "0", int),
    ("profile", "--every", "0", "1", int),
    ("profile", "--top", "-1", "0", int),
    ("profile", "--limit", "-1", "0", int),
    ("trace", "--limit", "-1", "0", int),
])
def test_out_of_range_retry_policy_is_usage_error(
    capsys, command, flag, bad, edge, kind
):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, flag, bad])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    args = build_parser().parse_args([command, flag, edge])
    assert getattr(args, flag.lstrip("-").replace("-", "_")) == kind(edge)


@pytest.mark.parametrize("cpus,narrates", [(1, False), (4, True)])
def test_jobs_zero_narrates_by_resolved_worker_count(
    monkeypatch, cpus, narrates
):
    from repro.__main__ import _build_executor
    from repro.harness import executor as executor_module

    monkeypatch.setattr(executor_module, "detect_cpus", lambda: cpus)
    args = build_parser().parse_args(["figure5", "--jobs", "0", "--no-cache"])
    executor = _build_executor(args)
    assert executor.jobs == cpus
    assert (executor.progress is not None) is narrates


@pytest.mark.parametrize("argv", [
    ["serve", "/tmp/p.sock"],
    ["submit", "spec.toml"],
    ["figure5", "--backend", "process"],
    ["figure5", "--pool", "/tmp/p.sock"],
    ["run-spec", "spec.toml", "--pool-wait", "5"],
    ["figure5", "--resume"],
    ["figure5", "--journal", "x"],
    ["figure5", "--retries", "1"],
    ["figure5", "--backoff", "1"],
    ["figure5", "--inject-faults", "x=crash"],
    ["--engine", "reference", "run", "treeadd", "--small"],
    ["list", "sim-engines"],
])
def test_removed_sweep_service_options_rejected(argv):
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
