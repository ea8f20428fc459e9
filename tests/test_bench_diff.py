"""Benchmark-report diffing and the ``repro bench-diff`` CLI gate."""

import json

import pytest

from repro.audit import (
    BenchRule,
    compare_benchmarks,
    flatten_report,
    regressions,
)

REPORT = {
    "schema": "repro.bench_pr2/1",  # non-numeric: not a metric leaf
    "single_runs": {
        "health/hardware": {
            "seconds": 2.0,
            "seed_seconds": 3.0,
            "cycles": 563314,
            "instructions": 314064,
            "sim_insts_per_sec": 157032,
            "speedup_vs_seed": 1.5,
        },
    },
    "sweep": {
        "benchmarks": ["treeadd"],  # list: not a metric leaf
        "cpu_count": 4,
        "cells": 24,
        "serial_seconds": 10.0,
        "jobs4_seconds": 4.0,
        "jobs4_scaling": 2.5,
        "warm_speedup": 100.0,
        "warm_cache_stats": {"hits": 24, "misses": 0, "writes": 0, "invalid": 0},
    },
}


def _mutated(**leaf_updates):
    doc = json.loads(json.dumps(REPORT))
    for path, value in leaf_updates.items():
        node = doc
        *parents, leaf = path.split(".")
        for p in parents:
            node = node[p]
        node[leaf] = value
    return doc


class TestFlatten:
    def test_numeric_leaves_only(self):
        flat = flatten_report(REPORT)
        assert flat["single_runs.health/hardware.cycles"] == 563314
        assert flat["sweep.warm_cache_stats.hits"] == 24
        assert "schema" not in flat
        assert "sweep.benchmarks" not in flat

    def test_bools_are_not_metrics(self):
        assert flatten_report({"ok": True, "n": 1}) == {"n": 1}


class TestRules:
    def test_identical_reports_all_ok(self):
        rows = compare_benchmarks(REPORT, REPORT)
        assert rows and all(r["ok"] for r in rows)
        assert regressions(rows) == []
        assert all(r["drift"] == 0 for r in rows)

    def test_exact_cycle_drift_flagged(self):
        cur = _mutated(**{"single_runs.health/hardware.cycles": 563315})
        bad = regressions(compare_benchmarks(REPORT, cur))
        assert [r["metric"] for r in bad] == [
            "single_runs.health/hardware.cycles"
        ]
        assert bad[0]["mode"] == "exact" and bad[0]["drift"] == 1

    def test_wall_clock_within_tolerance_passes(self):
        cur = _mutated(**{"sweep.serial_seconds": 11.0})  # +10%
        assert regressions(compare_benchmarks(REPORT, cur, tolerance=0.25)) == []

    def test_wall_clock_blowup_flagged(self):
        cur = _mutated(**{"sweep.serial_seconds": 20.0})  # 2x
        bad = regressions(compare_benchmarks(REPORT, cur, tolerance=0.25))
        assert [r["metric"] for r in bad] == ["sweep.serial_seconds"]
        assert bad[0]["mode"] == "lower"

    def test_wall_clock_improvement_always_passes(self):
        cur = _mutated(**{"sweep.serial_seconds": 0.1})
        assert regressions(compare_benchmarks(REPORT, cur)) == []

    def test_throughput_drop_flagged_rise_ok(self):
        slow = _mutated(**{"single_runs.health/hardware.sim_insts_per_sec": 1})
        bad = regressions(compare_benchmarks(REPORT, slow))
        assert [r["metric"] for r in bad] == [
            "single_runs.health/hardware.sim_insts_per_sec"
        ]
        fast = _mutated(
            **{"single_runs.health/hardware.sim_insts_per_sec": 10**9}
        )
        assert regressions(compare_benchmarks(REPORT, fast)) == []

    def test_info_leaves_never_gate(self):
        # seed_seconds matches the specific info rule before *seconds.
        cur = _mutated(**{
            "single_runs.health/hardware.seed_seconds": 9999.0,
            "sweep.cpu_count": 1,
        })
        rows = compare_benchmarks(REPORT, cur)
        assert regressions(rows) == []
        by = {r["metric"]: r for r in rows}
        assert by["single_runs.health/hardware.seed_seconds"]["mode"] == "info"
        assert by["sweep.serial_seconds"]["mode"] == "lower"

    def test_missing_metric_fails_unless_info(self):
        cur = json.loads(json.dumps(REPORT))
        del cur["single_runs"]["health/hardware"]["cycles"]
        del cur["sweep"]["cpu_count"]  # info: may vanish freely
        bad = regressions(compare_benchmarks(REPORT, cur))
        assert [r["metric"] for r in bad] == [
            "single_runs.health/hardware.cycles"
        ]
        assert bad[0]["band"] == "missing" and bad[0]["current"] is None

    def test_new_metric_is_informational(self):
        cur = _mutated(**{"sweep.cells": 24})
        cur["sweep"]["new_counter"] = 7
        rows = compare_benchmarks(REPORT, cur)
        assert regressions(rows) == []
        row = next(r for r in rows if r["metric"] == "sweep.new_counter")
        assert row["band"] == "new" and row["baseline"] is None

    def test_custom_rule_and_per_rule_tolerance(self):
        rules = (BenchRule("*seconds", "lower", tolerance=0.0),)
        cur = _mutated(**{"sweep.serial_seconds": 10.001})
        bad = regressions(compare_benchmarks(REPORT, cur, rules=rules))
        assert any(r["metric"] == "sweep.serial_seconds" for r in bad)

    def test_layer_budget_leaves(self):
        base = {"kernels": {"treeadd": {
            "instructions": 100,
            "perfect": {"cycles": 90, "seconds": 1.0},
            "layers": {"isa_ns_per_inst": 300.0, "cpu_ns_per_inst": 1000.0,
                       "mem_ns_per_inst": 5.0, "prefetch_ns_per_inst": -3.0},
        }}}
        cur = json.loads(json.dumps(base))
        layers = cur["kernels"]["treeadd"]["layers"]
        layers["cpu_ns_per_inst"] = 2000.0
        layers["mem_ns_per_inst"] = 500.0  # noise-dominated: never gates
        rows = compare_benchmarks(base, cur)
        by = {r["metric"].rsplit(".", 1)[-1]: r for r in rows}
        assert by["isa_ns_per_inst"]["mode"] == "lower"
        assert by["mem_ns_per_inst"]["mode"] == "info"
        assert by["cycles"]["mode"] == "exact"
        assert [r["metric"] for r in regressions(rows)] == [
            "kernels.treeadd.layers.cpu_ns_per_inst"
        ]

    def test_wildcard_rule_matching(self):
        rule = BenchRule("*seconds", "lower")
        assert rule.matches("serial_seconds")
        assert rule.matches("seconds")
        assert not rule.matches("second")
        exact = BenchRule("cycles", "exact")
        assert exact.matches("cycles") and not exact.matches("kilocycles")


class TestCli:
    def _write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_identical_reports_exit_zero(self, tmp_path, capsys):
        from repro.__main__ import main

        base = self._write(tmp_path, "base.json", REPORT)
        cur = self._write(tmp_path, "cur.json", REPORT)
        rc = main(["bench-diff", base, cur])
        assert rc == 0
        assert "bench-diff OK" in capsys.readouterr().out

    def test_injected_regression_exits_nonzero(self, tmp_path, capsys):
        from repro.__main__ import main

        base = self._write(tmp_path, "base.json", REPORT)
        cur = self._write(
            tmp_path, "cur.json",
            _mutated(**{"single_runs.health/hardware.cycles": 1}),
        )
        out_path = tmp_path / "diff.json"
        rc = main(["bench-diff", base, cur, "-o", str(out_path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "REGRESSION" in captured.err
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "repro.bench_diff/1"
        assert doc["regressions"] == 1

    def test_missing_current_is_usage_error(self, tmp_path):
        from repro.__main__ import main

        base = self._write(tmp_path, "base.json", REPORT)
        with pytest.raises(SystemExit):
            main(["bench-diff", base])

    def test_unreadable_baseline_is_usage_error(self, tmp_path):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["bench-diff", str(tmp_path / "nope.json"),
                  str(tmp_path / "nope2.json")])
