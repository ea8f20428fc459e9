"""Tournament reporting: spec validation, ranking, outcome conservation.

The tournament spec crosses every scheme against every workload with
telemetry attached; these tests pin

* spec-level validation — outcome columns require ``telemetry = true``,
  and the flag round-trips through to_dict/from_dict and the cache key;
* :func:`tournament_summary` ranking semantics on synthetic rows —
  geomean ordering, error-struck schemes after clean ones, name ties;
* the end-to-end conservation law on a real (small) tournament run —
  every (scheme, workload) cell's ``timely + late + early-evicted +
  useless`` equals its ``issued`` count (the PR-5 outcome partition),
  with ``dropped`` counted separately.
"""

import dataclasses
import json

import pytest

from repro import small_config
from repro.harness import (
    ExperimentSpec,
    RunSpec,
    SpecError,
    WorkloadSel,
    is_tournament_spec,
    load_spec,
    run_spec,
    scheme_names,
    spec_key,
    tournament_summary,
)
from repro.obs.outcomes import OUTCOMES
from repro.workloads import workload_class

PARTITION = ("timely", "late", "early-evicted", "useless")


def tiny_tournament_spec():
    spec = ExperimentSpec(
        name="tournament-test",
        telemetry=True,
        workloads=(WorkloadSel("treeadd"), WorkloadSel("em3d")),
        schemes=tuple(scheme_names()),
        columns=("benchmark", "scheme", "cycles", "normalized", "issued",
                 *OUTCOMES),
    )
    return dataclasses.replace(spec, workloads=(
        WorkloadSel("treeadd", params=workload_class("treeadd").test_params()),
        WorkloadSel("em3d", params=workload_class("em3d").test_params()),
    ))


# ----------------------------------------------------------------------
# Spec validation and round-trips
# ----------------------------------------------------------------------

class TestTelemetrySpecValidation:
    def test_outcome_columns_require_telemetry(self):
        with pytest.raises(SpecError, match="telemetry"):
            ExperimentSpec(
                name="x",
                workloads=(WorkloadSel("health"),),
                schemes=("base", "hardware"),
                columns=("benchmark", "scheme", "timely"),
            )

    def test_telemetry_round_trips(self):
        spec = tiny_tournament_spec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        assert ExperimentSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))) == spec

    def test_to_dict_omits_default_telemetry(self):
        spec = ExperimentSpec(
            name="x", workloads=(WorkloadSel("health"),),
            schemes=("base",), columns=("benchmark", "scheme", "cycles"))
        assert "telemetry" not in spec.to_dict()

    def test_telemetry_is_part_of_the_cache_key(self):
        cfg = small_config()
        params = workload_class("treeadd").test_params()
        plain = RunSpec.make("treeadd", "baseline", "none", cfg, params)
        observed = RunSpec.make("treeadd", "baseline", "none", cfg, params,
                                telemetry=True)
        assert spec_key(plain) != spec_key(observed)

    def test_shipped_tournament_spec_qualifies(self):
        spec = load_spec("examples/specs/tournament.toml")
        assert spec.telemetry
        assert is_tournament_spec(spec)
        assert set(spec.schemes) == set(scheme_names())

    def test_non_telemetry_specs_do_not_qualify(self):
        assert not is_tournament_spec(load_spec("examples/specs/figure5.toml"))

    def test_cannot_strip_telemetry_from_outcome_spec(self):
        spec = load_spec("examples/specs/tournament.toml")
        with pytest.raises(SpecError, match="telemetry"):
            dataclasses.replace(spec, telemetry=False)


# ----------------------------------------------------------------------
# Ranking semantics on synthetic rows
# ----------------------------------------------------------------------

def _row(scheme, normalized, issued=0, **outcomes):
    row = {"scheme": scheme, "normalized": normalized, "issued": issued}
    for o in OUTCOMES:
        row[o] = outcomes.get(o.replace("-", "_"), 0)
    return row


class TestTournamentSummary:
    def test_ranks_by_geomean_lowest_first(self):
        rows = [_row("slow", 1.2), _row("slow", 1.1),
                _row("fast", 0.9), _row("fast", 0.8),
                _row("base", 1.0), _row("base", 1.0)]
        summary = tournament_summary(rows)
        assert [r["scheme"] for r in summary] == ["fast", "base", "slow"]
        assert [r["rank"] for r in summary] == [1, 2, 3]
        assert summary[0]["best"] == 0.8 and summary[0]["worst"] == 0.9

    def test_error_rows_rank_after_every_clean_scheme(self):
        rows = [_row("clean", 1.3),
                _row("struck", 0.5),
                {"scheme": "struck", "error": "boom"}]  # no normalized
        summary = tournament_summary(rows)
        assert [r["scheme"] for r in summary] == ["clean", "struck"]
        assert summary[1]["errors"] == 1 and summary[1]["cells"] == 1

    def test_ties_break_by_name(self):
        rows = [_row("zeta", 1.0), _row("alpha", 1.0)]
        assert [r["scheme"] for r in tournament_summary(rows)] == [
            "alpha", "zeta"]

    def test_outcome_totals_aggregate(self):
        rows = [_row("s", 1.0, issued=10, timely=4, late=6),
                _row("s", 0.9, issued=5, timely=5)]
        (summary,) = tournament_summary(rows)
        assert summary["issued"] == 15
        assert summary["timely"] == 9 and summary["late"] == 6
        assert summary["accuracy%"] == 60.0

    def test_rows_without_scheme_are_ignored(self):
        assert tournament_summary([{"benchmark": "treeadd"}]) == []


# ----------------------------------------------------------------------
# End-to-end: the conservation law on a real small tournament
# ----------------------------------------------------------------------

class TestTournamentEndToEnd:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_spec(tiny_tournament_spec().with_machine("small"))

    def test_every_cell_present(self, rows):
        assert len(rows) == 2 * len(scheme_names())
        cells = {(r["benchmark"], r["scheme"]) for r in rows}
        assert len(cells) == len(rows)

    def test_outcome_partition_sums_to_issued(self, rows):
        for row in rows:
            partition = sum(row[o] for o in PARTITION)
            assert partition == row["issued"], row
            assert row["dropped"] >= 0

    def test_summary_is_well_formed_and_conserves(self, rows):
        summary = tournament_summary(rows)
        assert [r["rank"] for r in summary] == list(
            range(1, len(scheme_names()) + 1))
        assert all(r["errors"] == 0 and r["cells"] == 2 for r in summary)
        geomeans = [r["geomean"] for r in summary]
        assert geomeans == sorted(geomeans)
        for r in summary:
            assert sum(r[o] for o in PARTITION) == r["issued"]

    def test_base_scheme_issues_nothing(self, rows):
        for row in rows:
            if row["scheme"] == "base":
                assert row["issued"] == 0 and row["normalized"] == 1.0
