"""Runtime invariant auditor: conservation-law sweeps, the corrupt-outcome
drill, and the workload-matrix gate."""

import types

import pytest

from repro import Telemetry, simulate, small_config
from repro.__main__ import main
from repro.audit import (
    AuditError,
    Auditor,
    AuditViolation,
    CorruptPlan,
    audit_workloads,
    corrupt_outcome_tracker,
)
from repro.obs import EventTrace, TIMELY

from tests.conftest import assemble_list_walk


def _dummy_model(cfg=None):
    """Just enough TimingModel surface for unit-driving the Auditor."""
    return types.SimpleNamespace(
        cfg=cfg or small_config(),
        telemetry=None,
        hierarchy=types.SimpleNamespace(audit_check=lambda: []),
        engine=types.SimpleNamespace(audit_check=lambda now: []),
    )


class TestAuditorUnit:
    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            Auditor(interval=0)

    def test_clean_commits_record_nothing(self):
        a = Auditor()
        a.attach(_dummy_model())
        a.on_commit(100, 500)
        a.on_commit(200, 900)
        assert a.ok and a.checks == 2 and not a.violations

    def test_cycle_regression_is_caught(self):
        a = Auditor()
        a.attach(_dummy_model())
        a.on_commit(100, 900)
        a.on_commit(200, 500)  # clock went backwards
        assert not a.ok
        assert a.violations[0].invariant == "cycle-monotone"
        assert a.violations[0].commit == 200

    def test_stalled_commit_count_is_caught(self):
        a = Auditor()
        a.attach(_dummy_model())
        a.on_commit(100, 500)
        a.on_commit(100, 600)
        assert [v.invariant for v in a.violations] == ["commit-count-increasing"]

    def test_occupancy_bounds(self):
        model = _dummy_model()
        a = Auditor()
        a.attach(model)
        a.on_commit(
            100, 500,
            rob=list(range(model.cfg.window + 1)),
            lsq=list(range(model.cfg.lsq_entries + 1)),
        )
        assert {v.invariant for v in a.violations} == {
            "rob-occupancy", "lsq-occupancy",
        }

    def test_component_violations_are_attributed(self):
        model = _dummy_model()
        model.engine.audit_check = lambda now: [("prq-occupancy", "too full")]
        a = Auditor()
        a.attach(model)
        a.on_commit(100, 500)
        (v,) = a.violations
        assert v.component == "engine" and v.invariant == "prq-occupancy"
        assert "prq-occupancy" in v.describe()

    def test_strict_mode_raises(self):
        a = Auditor(strict=True)
        a.attach(_dummy_model())
        a.on_commit(100, 900)
        with pytest.raises(AuditError, match="cycle-monotone"):
            a.on_commit(200, 100)

    def test_violation_list_is_capped_but_counting_continues(self):
        a = Auditor(max_violations=3)
        a.attach(_dummy_model())
        for i in range(10):
            a.on_commit(100, 500)  # commit count never advances
        # first call is clean, the next nine each violate once
        assert len(a.violations) == 3
        assert a.violation_count == 9

    def test_violation_record_is_frozen(self):
        v = AuditViolation("x", "m", 1, 2)
        with pytest.raises(AttributeError):
            v.invariant = "y"


class TestAuditedSimulation:
    @pytest.mark.parametrize("engine", ["none", "software", "dbp", "hardware"])
    def test_real_runs_are_clean(self, tiny_cfg, engine):
        program, __ = assemble_list_walk(96)
        auditor = Auditor(interval=64, strict=True)  # strict: crash on any
        simulate(program, tiny_cfg, engine=engine,
                 telemetry=Telemetry(), audit=auditor)
        assert auditor.ok and auditor.checks > 1

    def test_audit_without_telemetry(self, tiny_cfg):
        # The auditor must not require a telemetry object to exist.
        program, __ = assemble_list_walk(32)
        auditor = Auditor(interval=64, strict=True)
        simulate(program, tiny_cfg, engine="dbp", audit=auditor)
        assert auditor.ok

    def test_audit_counters_land_in_registry(self, tiny_cfg):
        program, __ = assemble_list_walk(96)
        tele = Telemetry()
        auditor = Auditor(interval=64)
        simulate(program, tiny_cfg, engine="dbp", telemetry=tele, audit=auditor)
        assert tele.registry.get("audit.checks").value == auditor.checks - 1
        assert tele.registry.get("audit.violations") is None  # clean run

    def test_corrupted_tracker_is_caught(self, tiny_cfg):
        program, __ = assemble_list_walk(96)
        tele = Telemetry()
        corrupt_outcome_tracker(tele.outcomes, after=0)
        auditor = Auditor(interval=64)
        simulate(program, tiny_cfg, engine="dbp", telemetry=tele, audit=auditor)
        assert not auditor.ok
        # The spurious timely count breaks the tracker's conservation law
        # and its agreement with the hierarchy's prefetch ledger.
        laws = {v.invariant for v in auditor.violations}
        assert laws == {"outcome-conservation", "prefetch-outcome-agreement"}
        assert sum(
            tele.registry.get(f"audit.violation.{law}").value for law in laws
        ) == auditor.violation_count

    def test_violation_reaches_the_event_trace(self, tiny_cfg):
        program, __ = assemble_list_walk(96)
        trace = EventTrace()
        tele = Telemetry(trace=trace)
        corrupt_outcome_tracker(tele.outcomes, after=0)
        simulate(program, tiny_cfg, engine="dbp", telemetry=tele,
                 audit=Auditor(interval=64))
        names = [name for __, name, *rest in trace.events]
        assert "audit-violation" in names

    def test_corruption_only_fires_after_threshold(self):
        t = corrupt_outcome_tracker(Telemetry().outcomes, after=2)
        for __ in range(2):
            t.record_issue()
        assert t.counts[TIMELY] == 0  # below threshold: untouched
        t.record_issue()
        assert t.counts[TIMELY] == 1  # the injected mis-classification
        assert t.audit_check(outstanding=3)  # the tracker now fails audit


class TestWorkloadGate:
    def test_matrix_is_clean(self):
        from repro.harness import scheme_names

        cells = audit_workloads(workloads=["treeadd"], interval=128)
        assert len(cells) == len(scheme_names())  # every scheme has a cell
        assert all(c.ok for c in cells)
        assert all(c.checks > 0 for c in cells)

    def test_corrupt_fault_plan_is_caught_and_scoped(self, capsys):
        plan = CorruptPlan.parse("em3d//dbp=corrupt")
        assert plan.selectors == (("em3d", "*", "dbp"),)
        cells = audit_workloads(
            workloads=["em3d"], schemes=["dbp", "hardware"],
            interval=128, drill=plan,
        )
        by_scheme = {c.scheme: c for c in cells}
        victim = by_scheme["dbp"]
        assert victim.corrupted and not victim.ok
        assert {v.invariant for v in victim.violations} == {
            "outcome-conservation", "prefetch-outcome-agreement",
        }
        bystander = by_scheme["hardware"]
        assert not bystander.corrupted and bystander.ok

        # Through the CLI: the drill passes only when a cell was corrupted
        # and caught.  A typo'd engine corrupts nothing and fails; a kind
        # other than corrupt is a usage error.
        argv = ["audit", "--workloads", "em3d", "--schemes", "dbp",
                "hardware", "--no-diff", "--no-gate", "--inject-faults"]
        assert main(argv + ["em3d//dbp=corrupt"]) == 0
        assert main(argv + ["em3d//dpb=corrupt"]) == 1
        assert "matched no audited cell" in capsys.readouterr().err
        with pytest.raises(SystemExit) as usage:
            main(argv + ["em3d//dbp=transient"])
        assert usage.value.code == 2
        assert "=corrupt" in capsys.readouterr().err

    def test_cell_row_shape(self):
        (cell,) = audit_workloads(workloads=["treeadd"], schemes=["base"])
        row = cell.row()
        assert row["benchmark"] == "treeadd" and row["scheme"] == "base"
        assert row["violations"] == 0 and row["first"] == "-"
