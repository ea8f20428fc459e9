"""Machine-readable paper targets and the differential check over the
workload registry's programs."""

import math

import pytest

from repro.audit import (
    FIGURE5_TARGETS,
    PaperTarget,
    differential_check,
    evaluate_targets,
    figure5_observations,
)


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
        keys = [t.key for t in FIGURE5_TARGETS]
        assert len(keys) == len(set(keys))  # no duplicate target keys
        assert len(FIGURE5_TARGETS) == 6
        # every target quotes its section of the paper
        assert all(t.source for t in FIGURE5_TARGETS)


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
    def test_differential_check_sampled(self):
        # One workload, full-stats sample on: both paths must agree on
        # every variant, and exactly the first is stats-diffed too.
        rows = differential_check(workloads=["treeadd"], full_stats_sample=1)
        assert [r["variant"] for r in rows] == ["baseline", "sw:queue",
                                                "coop:queue"]
        assert all(r["ok"] and r["workload"] == "treeadd" for r in rows)
        assert [r["mode"] for r in rows] == ["stream+stats", "stream",
                                             "stream"]
