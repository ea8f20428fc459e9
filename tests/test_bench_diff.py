"""Benchmark-report diffing and the ``repro bench-diff`` CLI gate."""

import json
from pathlib import Path

import pytest

from repro.audit import (
    BenchRule,
    compare_benchmarks,
    flatten_report,
    regressions,
)

ROOT = Path(__file__).resolve().parents[1]

#: One kernel of a ``benchmarks/layer_budget.py`` report (BENCH_LAYERS.json).
REPORT = {
    "schema": "repro.layer_budget/1",  # non-numeric: not a metric leaf
    "machine": "bench",
    "host": {"cpu_count": 2, "python": "3.11.7"},
    "cross_check": {
        "kernel": "health",
        "profiled_share": {"cpu": 57.0, "isa": 17.8, "mem": 25.2},
    },
    "kernels": {
        "health": {
            "instructions": 314064,
            "functional": {"seconds": 0.5},
            "perfect": {"cycles": 197214, "seconds": 1.0},
            "hierarchy": {"cycles": 718168, "seconds": 1.5},
            "prefetch": {"cycles": 563314, "seconds": 2.0},
            "layers": {
                "isa_ns_per_inst": 390.3,
                "cpu_ns_per_inst": 1498.8,
                "mem_ns_per_inst": 887.1,
                "prefetch_ns_per_inst": 1743.3,
            },
        },
    },
}
HEALTH = "kernels.health"


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
        assert flat[f"{HEALTH}.prefetch.cycles"] == 563314
        assert flat["host.cpu_count"] == 2
        assert "schema" not in flat
        assert "host.python" not in flat
        assert "cross_check.kernel" not in flat
        assert flatten_report({"kernels": ["health"], "n": 1}) == {"n": 1}

    def test_bools_are_not_metrics(self):
        assert flatten_report({"ok": True, "n": 1}) == {"n": 1}


class TestRules:
    def test_identical_reports_all_ok(self):
        rows = compare_benchmarks(REPORT, REPORT)
        assert rows and all(r["ok"] for r in rows)
        assert regressions(rows) == []
        assert all(r["drift"] == 0 for r in rows)

    def test_exact_cycle_drift_flagged(self):
        cur = _mutated(**{f"{HEALTH}.prefetch.cycles": 563315})
        bad = regressions(compare_benchmarks(REPORT, cur))
        assert [r["metric"] for r in bad] == [f"{HEALTH}.prefetch.cycles"]
        assert bad[0]["mode"] == "exact" and bad[0]["drift"] == 1

    def test_wall_clock_within_tolerance_passes(self):
        cur = _mutated(**{f"{HEALTH}.prefetch.seconds": 2.2})  # +10%
        assert regressions(compare_benchmarks(REPORT, cur, tolerance=0.25)) == []

    def test_wall_clock_blowup_flagged(self):
        cur = _mutated(**{f"{HEALTH}.prefetch.seconds": 4.0})  # 2x
        bad = regressions(compare_benchmarks(REPORT, cur, tolerance=0.25))
        assert [r["metric"] for r in bad] == [f"{HEALTH}.prefetch.seconds"]
        assert bad[0]["mode"] == "lower"

    def test_wall_clock_improvement_always_passes(self):
        cur = _mutated(**{f"{HEALTH}.prefetch.seconds": 0.1})
        assert regressions(compare_benchmarks(REPORT, cur)) == []

    def test_throughput_drop_flagged_rise_ok(self):
        # No default rule is ``higher``; callers opt in with their own table.
        rules = (BenchRule("sim_insts_per_sec", "higher"),)
        base = {"sim_insts_per_sec": 1000}
        bad = regressions(compare_benchmarks(
            base, {"sim_insts_per_sec": 1}, rules=rules))
        assert [r["metric"] for r in bad] == ["sim_insts_per_sec"]
        assert bad[0]["mode"] == "higher"
        assert regressions(compare_benchmarks(
            base, {"sim_insts_per_sec": 10**9}, rules=rules)) == []

    def test_info_leaves_never_gate(self):
        cur = _mutated(**{
            "host.cpu_count": 1,
            f"{HEALTH}.layers.mem_ns_per_inst": 9999.0,
            "cross_check.profiled_share.mem": 90.0,  # no rule matches
        })
        rows = compare_benchmarks(REPORT, cur)
        assert regressions(rows) == []
        by = {r["metric"]: r for r in rows}
        for name in ("host.cpu_count", f"{HEALTH}.layers.mem_ns_per_inst",
                     "cross_check.profiled_share.mem"):
            assert by[name]["mode"] == "info"
        assert by[f"{HEALTH}.prefetch.seconds"]["mode"] == "lower"

    def test_missing_metric_fails_unless_info(self):
        cur = json.loads(json.dumps(REPORT))
        del cur["kernels"]["health"]["prefetch"]["cycles"]
        del cur["host"]["cpu_count"]  # info: may vanish freely
        bad = regressions(compare_benchmarks(REPORT, cur))
        assert [r["metric"] for r in bad] == [f"{HEALTH}.prefetch.cycles"]
        assert bad[0]["band"] == "missing" and bad[0]["current"] is None

    def test_new_metric_is_informational(self):
        cur = _mutated(**{f"{HEALTH}.layers.obs_ns_per_inst": 7.0})
        rows = compare_benchmarks(REPORT, cur)
        assert regressions(rows) == []
        row = next(r for r in rows
                   if r["metric"] == f"{HEALTH}.layers.obs_ns_per_inst")
        assert row["band"] == "new" and row["baseline"] is None

    def test_custom_rule_and_per_rule_tolerance(self):
        # A rule's own tolerance wins over a generous comparator default.
        rules = (BenchRule("*seconds", "lower", tolerance=0.0),)
        cur = _mutated(**{f"{HEALTH}.prefetch.seconds": 2.001})
        bad = regressions(
            compare_benchmarks(REPORT, cur, rules=rules, tolerance=1.5))
        assert [r["metric"] for r in bad] == [f"{HEALTH}.prefetch.seconds"]

    def test_layer_budget_leaves(self):
        cur = _mutated(**{
            f"{HEALTH}.layers.cpu_ns_per_inst": 3000.0,
            f"{HEALTH}.layers.mem_ns_per_inst": 5000.0,  # noise: never gates
        })
        rows = compare_benchmarks(REPORT, cur)
        by = {r["metric"].rsplit(".", 1)[-1]: r for r in rows}
        assert by["isa_ns_per_inst"]["mode"] == "lower"
        assert by["cpu_ns_per_inst"]["mode"] == "lower"
        assert by["mem_ns_per_inst"]["mode"] == "info"
        assert by["prefetch_ns_per_inst"]["mode"] == "info"
        assert by["instructions"]["mode"] == "exact"
        assert [r["metric"] for r in regressions(rows)] == [
            f"{HEALTH}.layers.cpu_ns_per_inst"
        ]

    def test_committed_report_cycles_gate_exactly(self):
        doc = json.loads((ROOT / "BENCH_LAYERS.json").read_text())
        rows = compare_benchmarks(doc, doc)
        exact = {r["metric"] for r in rows if r["mode"] == "exact"}
        kernels = doc["kernels"]
        assert exact == {
            f"kernels.{k}.{leaf}"
            for k in kernels
            for leaf in ("instructions", "perfect.cycles",
                         "hierarchy.cycles", "prefetch.cycles")
        }
        # Full-size health/hardware, em3d/hardware and treeadd/base.
        flat = flatten_report(doc)
        assert flat["kernels.health.prefetch.cycles"] == 563314
        assert flat["kernels.em3d.prefetch.cycles"] == 610560
        assert flat["kernels.treeadd.hierarchy.cycles"] == 298553

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
            _mutated(**{f"{HEALTH}.prefetch.cycles": 1}),
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
