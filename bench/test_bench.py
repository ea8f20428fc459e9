"""Self-test of the benchmark: ``python -m pytest bench -q``.

Runs the real benchmark entry point on every workload, shrunk to the ``small`` machine
and test-size parameters so the whole file takes seconds, and checks the
contract the benchmark's numbers rest on.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import measure
import run
import suite

BENCHMARK = json.loads((suite.ROOT / "BENCHMARK.json").read_text())


def _small(base_spec):
    return lambda name: base_spec(name).small().with_machine("small")


def _drive(args: list[str]) -> tuple[int, dict, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run.main(args)
    lines = out.getvalue().splitlines()
    return status, json.loads(lines[-1]), lines


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Each workload end to end and traced, at test sizes, with one cold
    sweep, two warm reruns and two set-up probes."""
    work = tmp_path_factory.mktemp("bench_run")
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(suite, "base_spec", _small(suite.base_spec))
        mp.setattr(suite, "WORKLOADS", {
            name: replace(w, min_reps=1, warm_reruns=2)
            for name, w in suite.WORKLOADS.items()})
        mp.setattr(measure, "WORK", work)
        mp.setattr(measure, "SETUP_PROBES", 2)
        for name in suite.WORKLOADS:
            for trace, kind in ((0, "e2e"), (1, "traced")):
                status, line, lines = _drive([
                    "--workload", name, "--seconds", "0", "--trace", str(trace)])
                record = json.loads(
                    (work / f"{name}-seed0-{kind}.json").read_text())
                out[name, kind] = (status, line, lines, record)
    return out


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(suite.WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == suite.WORKLOADS[entry["name"]].why
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == \
        measure.E2E_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == \
        measure.LAYER_UNITS


@pytest.mark.parametrize("kind", ["e2e", "traced"])
def test_every_metric_prints_with_its_unit_and_no_cell_fails(runs, kind):
    units = measure.LAYER_UNITS if kind == "traced" else measure.E2E_UNITS
    for name in suite.WORKLOADS:
        status, line, lines, __ = runs[name, kind]
        assert status == 0, "\n".join(lines)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] >= 1
        assert {k: v["unit"] for k, v in line["metrics"].items()} == units
        for metric, unit in units.items():
            assert any(row.split()[:1] == [metric] and unit in row.split()
                       for row in lines), metric


def test_end_to_end_metrics_are_never_zero(runs):
    for name in suite.WORKLOADS:
        metrics = runs[name, "e2e"][1]["metrics"]
        assert all(v["value"] > 0 for v in metrics.values()), name


def test_tracing_is_a_pure_observer(runs):
    for name in suite.WORKLOADS:
        record = runs[name, "traced"][3]
        assert record["traced_cycle_digest"] == record["cycle_digest"]
        assert record["cycle_digest"] == runs[name, "e2e"][3]["cycle_digest"]


def test_isa_counts_every_committed_instruction(runs):
    for name in suite.WORKLOADS:
        line, record = runs[name, "traced"][1], runs[name, "traced"][3]
        assert (line["metrics"]["isa.insts"]["value"]
                == record["instructions_per_sweep"])


def test_warm_pass_reads_every_cell_from_the_cache(runs):
    for name in suite.WORKLOADS:
        record = runs[name, "traced"][3]
        warm = record["passes"]["warm"]
        assert warm["cpu.run"] == 0
        assert warm["isa.insts"] == 0
        assert record["warm_cache_hits"] == record["cells"]


def test_compute_base_bypasses_prefetch_and_outcome_layers(runs):
    metrics = runs["compute-base", "traced"][1]["metrics"]
    assert metrics["prefetch.calls"]["value"] == 0
    assert metrics["obs.calls"]["value"] == 0
    assert metrics["prefetch.self_s"]["value"] == 0
    assert runs["zoo-telemetry", "traced"][1]["metrics"]["obs.calls"]["value"] > 0


def test_seed_perturbs_only_input_sizes():
    for name in suite.WORKLOADS:
        shipped = suite.base_spec(name)
        assert suite.build_spec(name, 0) == shipped
        seeded = suite.build_spec(name, 7)
        assert seeded == suite.build_spec(name, 7)
        assert seeded.machine == shipped.machine
        assert seeded.overrides == shipped.overrides
        before = suite.resolved_params(shipped)
        after = suite.resolved_params(seeded)
        for bench, params in after.items():
            for key, value in params.items():
                old = before[bench][key]
                if value != old:
                    assert key != "interval" and old >= suite.SIZE_FLOOR
                    assert abs(value - old) <= suite.SIZE_JITTER * old + 1
    assert any(suite.build_spec(n, 7) != suite.base_spec(n)
               for n in suite.WORKLOADS)


def test_refuses_a_pinned_engine(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_SIM_ENGINE", "compiled")
    assert run.main(["--workload", "compute-base"]) == 2
    assert "REPRO_SIM_ENGINE" in capsys.readouterr().err


def test_fails_without_the_simulator_source(tmp_path):
    shutil.copytree(suite.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(suite.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload",
         "fig5-membound", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not Path(tmp_path / ".bench_run").exists()
