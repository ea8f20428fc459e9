"""Machine-readable paper targets and the golden-cell fidelity gate."""

import json
import math

import pytest

from repro.audit import (
    FIGURE5_TARGETS,
    TABLE1_TARGETS,
    PaperTarget,
    all_targets,
    differential_check,
    evaluate_targets,
    fidelity_gate,
    figure5_observations,
    load_golden,
    table1_observations,
)
from repro.audit.gate import DEFAULT_GOLDEN
from repro.harness.experiments import MEMORY_BOUND


class TestPaperTarget:
    def test_band_validation(self):
        with pytest.raises(ValueError):
            PaperTarget("k", "d", 50.0, lo=60.0, hi=40.0)

    def test_contains(self):
        t = PaperTarget("k", "d", 72.0, lo=40.0, hi=100.0)
        assert t.contains(72.0) and t.contains(40.0) and t.contains(100.0)
        assert not t.contains(39.9)
        assert not t.contains(math.nan)

    def test_drift_row(self):
        t = PaperTarget("k", "d", 72.0, lo=40.0, hi=100.0, source="Fig 5")
        row = t.drift_row(60.0)
        assert row["ok"] and row["drift"] == -12.0 and row["paper"] == 72.0
        missing = t.drift_row(None)
        assert not missing["ok"] and missing["observed"] is None

    def test_registry_shape(self):
        keys = [t.key for t in all_targets()]
        assert len(keys) == len(set(keys))  # no duplicate target keys
        assert len(FIGURE5_TARGETS) == 6
        assert len(TABLE1_TARGETS) == 2 * len(MEMORY_BOUND)
        # every target quotes its section of the paper
        assert all(t.source for t in all_targets())


class TestObservationMapping:
    def test_figure5_rows_map_to_keys(self):
        rows = [
            {"scheme": "software", "avg speedup%": 14.0,
             "avg mem stall cut%": 68.0},
            {"scheme": "base", "avg speedup%": 0.0},  # not a target scheme
        ]
        obs = figure5_observations(rows)
        assert obs == {
            "figure5.speedup.software": 14.0,
            "figure5.mem_stall_cut.software": 68.0,
        }

    def test_table1_rows_map_to_keys(self):
        rows = [
            {"benchmark": "health", "mem frac%": 55.0, "%misses lds": 92.0},
            {"benchmark": "power", "mem frac%": 5.0},  # not memory-bound
        ]
        obs = table1_observations(rows)
        assert obs == {
            "table1.memory_fraction.health": 55.0,
            "table1.lds_miss_fraction.health": 92.0,
        }

    def test_evaluate_skips_or_flags_missing(self):
        obs = {"figure5.speedup.software": 14.0}
        rows = evaluate_targets(obs, targets=FIGURE5_TARGETS)
        assert len(rows) == 1 and rows[0]["ok"]
        rows = evaluate_targets(obs, targets=FIGURE5_TARGETS,
                                skip_missing=False)
        assert len(rows) == len(FIGURE5_TARGETS)
        assert sum(1 for r in rows if r["ok"]) == 1

    def test_out_of_band_observation_fails(self):
        obs = {"figure5.speedup.software": -3.0}  # a slowdown
        (row,) = evaluate_targets(obs, targets=FIGURE5_TARGETS)
        assert not row["ok"]


class TestGoldenGate:
    def test_golden_file_loads(self):
        golden = load_golden()
        assert DEFAULT_GOLDEN.exists() and golden

    def test_fidelity_gate_reports_named_drift(self, tmp_path):
        # One doctored pin of one scheme; test_golden_cycles already
        # re-runs every pin bit-exactly.
        label, scheme = "treeadd", "hardware"
        pin = load_golden()[label]
        pin["schemes"] = {scheme: pin["schemes"][scheme]}
        pin["schemes"][scheme]["cycles"] += 100
        doctored = tmp_path / "golden.json"
        doctored.write_text(json.dumps({label: pin}))
        drift = fidelity_gate(doctored)
        assert len(drift) == 1
        (row,) = drift
        assert row["cell"] == label and row["scheme"] == scheme
        assert row["metric"] == "cycles" and not row["ok"]
        assert row["drift"].startswith("-100")

    def test_differential_check_sampled(self, tmp_path):
        # One golden entry, full-stats sample on: both paths must agree.
        golden = load_golden()
        label = "treeadd"
        subset = {label: golden[label]}
        path = tmp_path / "golden.json"
        path.write_text(json.dumps(subset))
        rows = differential_check(path, full_stats_sample=1)
        assert rows and all(r["ok"] for r in rows)
        assert any(r["mode"] == "stream+stats" for r in rows)
