"""Prefetch-outcome classification: the tracker's state machine and
end-to-end accounting on hand-built programs."""

import pytest

from repro import Assembler, Telemetry, simulate
from repro.harness import (
    ExperimentSpec,
    WorkloadSel,
    compile_spec,
    scheme_names,
    simulate_cell,
)
from repro.isa.registers import T0, T1
from repro.mem.hierarchy import MemoryHierarchy
from repro.obs import (
    DROPPED,
    EARLY_EVICTED,
    LATE,
    OUTCOMES,
    TIMELY,
    USELESS,
    MetricRegistry,
    OutcomeTracker,
)
from repro.workloads import workload_names

from tests.conftest import assemble_list_walk


class TestOutcomeTracker:
    def test_timely_and_late_demand(self):
        t = OutcomeTracker()
        t.record_issue()
        t.record_issue()
        assert t.on_demand(("jump", 7, 50), 60) == TIMELY
        assert t.on_demand(("chained", 9, 50), 40) == LATE
        assert t.counts[TIMELY] == 1 and t.counts[LATE] == 1
        assert t.by_kind["jump"][TIMELY] == 1
        assert t.by_pc[9][LATE] == 1
        assert t.issued == 2 and t.audit_check() == []

    def test_demand_on_untracked_line_is_noop(self, tiny_cfg):
        # The tracker hears only of ledger records: demand traffic to a
        # line that was never prefetched classifies nothing.
        h = MemoryHierarchy(tiny_cfg)
        tele = Telemetry()
        h.set_telemetry(tele)
        done = h.data_access(0x2000_0000, 5)  # miss, then a hit
        h.data_access(0x2000_0000, done + 1)
        assert tele.outcomes.total == 0
        assert h.stats.prefetches_useful == 0

    def test_evicted_before_use(self):
        t = OutcomeTracker()
        t.record_issue()
        assert t.on_evict(("sw", None, 10)) == EARLY_EVICTED
        assert t.counts[EARLY_EVICTED] == 1
        assert t.by_kind["sw"][EARLY_EVICTED] == 1
        assert t.audit_check() == []

    def test_finalize_marks_unused_as_useless(self):
        t = OutcomeTracker()
        t.record_issue()
        t.record_issue()
        t.on_demand(("jump", 3, 10), 20)
        # Mid-run the one unresolved ledger record is the difference.
        assert t.audit_check(outstanding=1) == []
        t.finalize([("jump", 3, 10)])
        assert t.counts[USELESS] == 1
        assert t.counts[TIMELY] == 1
        assert t.audit_check() == []
        assert t.audit_check(outstanding=1)  # a record left after finalize

    def test_dropped(self):
        t = OutcomeTracker()
        t.record_drop("chained", 5)
        assert t.counts[DROPPED] == 1
        assert t.by_pc[5][DROPPED] == 1

    def test_distance_histogram_via_registry(self):
        reg = MetricRegistry()
        t = OutcomeTracker(reg)
        t.record_issue()
        t.on_demand(("jump", 1, 10), 74)
        h = reg.get("prefetch.to_demand_distance_cycles")
        assert h.count == 1 and h.sum == 64

    def test_to_dict_shape(self):
        t = OutcomeTracker()
        t.record_drop("jump", 4)
        d = t.to_dict()
        assert set(d) == {"counts", "issued", "dropped", "by_kind", "by_pc"}
        assert set(d["counts"]) == set(OUTCOMES)
        assert d["dropped"] == 1 and d["issued"] == 0
        assert d["by_pc"]["4"][DROPPED] == 1  # JSON-safe string keys


class TestEndToEnd:
    def test_software_prefetch_timely_on_straightline(self, tiny_cfg):
        # PF far enough ahead of the demand load that the fill completes:
        # exactly one prefetch, classified timely.
        a = Assembler()
        target = a.space(64)
        a.label("main")
        a.li(T0, target)
        a.pf(T0, 0)
        for __ in range(150):
            a.nop()
        a.lw(T1, T0, 0)
        a.halt()
        tele = Telemetry()
        res = simulate(a.assemble(), tiny_cfg, engine="software", telemetry=tele)
        assert tele.outcomes.counts[TIMELY] == 1
        assert tele.outcomes.total == 1
        assert res.telemetry["prefetch_outcomes"]["counts"][TIMELY] == 1

    def test_software_prefetch_late_when_demand_is_adjacent(self, tiny_cfg):
        # Demand load issues immediately after the PF: fill still in flight.
        a = Assembler()
        target = a.space(64)
        a.label("main")
        a.li(T0, target)
        a.pf(T0, 0)
        a.lw(T1, T0, 0)
        a.halt()
        tele = Telemetry()
        simulate(a.assemble(), tiny_cfg, engine="software", telemetry=tele)
        assert tele.outcomes.counts[LATE] == 1

    def test_software_prefetch_useless_when_never_touched(self, tiny_cfg):
        a = Assembler()
        target = a.space(64)
        a.label("main")
        a.li(T0, target)
        a.pf(T0, 0)
        for __ in range(150):
            a.nop()
        a.halt()
        tele = Telemetry()
        simulate(a.assemble(), tiny_cfg, engine="software", telemetry=tele)
        assert tele.outcomes.counts[USELESS] == 1

    def test_outcomes_consistent_with_hierarchy_counters(self, tiny_cfg):
        # On a real traversal, every issued prefetch resolves to exactly
        # one outcome, and demand-use outcomes mirror prefetches_useful.
        program, __ = assemble_list_walk(64)
        tele = Telemetry()
        res = simulate(program, tiny_cfg, engine="dbp", telemetry=tele)
        c = tele.outcomes.counts
        issued = res.hierarchy.prefetches_issued
        assert issued > 0
        assert c[TIMELY] + c[LATE] + c[EARLY_EVICTED] + c[USELESS] == issued
        # The hierarchy's ledger resolves each prefetch once: a late
        # prefetch merged in flight is not counted again at its pb hit.
        assert 0 < c[TIMELY] + c[LATE] == res.hierarchy.prefetches_useful
        assert c[DROPPED] == res.engine.prq_drops

    def test_hardware_engine_attributes_outcomes_per_pc(self, tiny_cfg):
        from tests.test_engines import walk_twice

        program, __ = walk_twice(64)
        tele = Telemetry()
        res = simulate(program, tiny_cfg, engine="hardware", telemetry=tele)
        assert res.engine.jump_prefetches > 0
        assert "jump" in tele.outcomes.by_kind
        assert tele.outcomes.by_pc  # attributed to triggering load PCs


class TestLedgerLaw:
    """With telemetry attached, the hierarchy's prefetch counters and the
    outcome tracker describe the same ledger: ``prefetches_useful ==
    timely + late`` and ``prefetches_issued == outcomes.issued``, for
    every registered scheme on every workload (test sizes, small
    machine)."""

    @pytest.mark.parametrize("scheme", scheme_names())
    def test_useful_equals_timely_plus_late(self, scheme):
        spec = ExperimentSpec(
            name="ledger-law",
            machine="small",
            workloads=tuple(WorkloadSel(n) for n in workload_names()),
            schemes=(scheme,),
            columns=("scheme",),
        ).small()
        for row in compile_spec(spec).rows:
            cell = row.run.timing
            tele = Telemetry()
            h = simulate_cell(cell, telemetry=tele).hierarchy
            c = tele.outcomes.counts
            where = f"{cell.benchmark}/{cell.variant}/{cell.engine}"
            assert h.prefetches_useful == c[TIMELY] + c[LATE], where
            assert h.prefetches_issued == tele.outcomes.issued, where
