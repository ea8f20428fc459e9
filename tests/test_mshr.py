"""The MSHR model axis: coalescing, hit-under-miss, write-back contention.

Four layers of pinning for ``MachineConfig.mshr_model``:

* unit tests against a bare :class:`MemoryHierarchy` — secondary misses
  join the in-flight entry (no new MSHR, no bus re-walk), demand joins
  promote background fills, prefetches reclassify redundant → coalesced,
  critical-word fill beats the full-line time, dirty-victim write-backs
  occupy demand bus slots;
* the MSHR conservation laws — each law fires on a targeted corruption
  and stays silent under ``blocking`` (where the entry table is inert),
  plus the fault-injection drills (:func:`corrupt_mshr_tracker` directly
  and routed through ``audit_workloads`` via the ``corrupt`` selector);
* Hypothesis engine-equivalence — random list-walk programs × the table
  and reference sim engines × all three models: identical commit streams
  and field-identical SimResults;
* Hypothesis monotonicity — on store-free pointer chases (no dirty lines,
  so write-back traffic cannot penalize the non-blocking models),
  ``cycles(full) <= cycles(coalescing) <= cycles(blocking)``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Assembler, MachineConfig
from repro.audit import Auditor, audit_workloads, corrupt_mshr_tracker
from repro.audit.diff import diff_commit_streams, diff_results, reference_simulate
from repro.config import CacheConfig, small_config
from repro.cpu.simulator import simulate
from repro.harness.faults import parse_fault_plan
from repro.isa.registers import A0, T2, V0
from repro.mem.hierarchy import MemoryHierarchy
from repro.obs import Telemetry
from tests.conftest import assemble_list_walk

ADDR = 0x2000_0000

MODELS = ("blocking", "coalescing", "full")


def tiny(model: str) -> MachineConfig:
    return MachineConfig(
        il1=CacheConfig(size=512, line=32, assoc=2, latency=1),
        dl1=CacheConfig(size=512, line=32, assoc=2, latency=1),
        l2=CacheConfig(size=2048, line=64, assoc=4, latency=12),
        mshr_model=model,
    )


def hier(model: str) -> MemoryHierarchy:
    return MemoryHierarchy(tiny(model))


def static_walk_program(n: int, pad: int):
    """A store-free pointer chase over ``n`` nodes laid out at assembly
    time (``pad`` spacer words between nodes).  No build-phase stores →
    no dirty lines → the write-back path is inert, which is what makes
    the cross-model cycle ordering provable rather than merely typical.
    """
    a = Assembler()
    nxt = 0
    for i in range(n):  # tail-to-head so each next pointer is known
        addr = a.word(i + 1)  # payload
        a.word(nxt)           # next pointer (0 terminates)
        for _ in range(pad):
            a.word(0)
        nxt = addr
    a.label("main")
    a.li(A0, nxt)
    a.li(T2, 0)
    a.label("wloop")
    a.beqz(A0, "done")
    a.lw(V0, A0, 0, tag="lds")
    a.add(T2, T2, V0)
    a.lw(A0, A0, 4, tag="lds")
    a.j("wloop")
    a.label("done")
    a.halt()
    return a.assemble("mshr_static_walk")


# ----------------------------------------------------------------------
# Unit: coalescing semantics on a bare hierarchy
# ----------------------------------------------------------------------

class TestCoalescing:
    def test_secondary_miss_allocates_no_new_mshr(self):
        h = hier("coalescing")
        h.data_access(ADDR, 1000)
        assert h.stats.mshrs_allocated == 1
        assert h.stats.mshr_targets == 1
        h.data_access(ADDR + 4, 1001)  # same line, still in flight
        assert h.stats.l1d_partial_hits == 1
        assert h.stats.mshrs_allocated == 1  # joined, not re-allocated
        assert h.stats.mshr_coalesced == 1
        assert h.stats.mshr_targets == 2

    def test_blocking_table_stays_inert(self):
        h = hier("blocking")
        h.data_access(ADDR, 1000)
        h.data_access(ADDR + 4, 1001)
        assert h.stats.l1d_partial_hits == 1
        assert h.stats.mshrs_allocated == 0
        assert h.stats.mshr_coalesced == 0
        assert not h._mshr_entries

    def test_demand_join_promotes_background_fill(self):
        # Prefetch B while the bus is busy with A: B's background fill
        # trails its hypothetical demand-priority completion.  A demand
        # load joining B's entry completes at the promoted time.
        done = {}
        for model in ("blocking", "coalescing"):
            h = hier(model)
            h.dtlb.translate(ADDR)
            h.prefetch_request(ADDR, 0)
            bg_ready = h.prefetch_request(ADDR + 64, 1)
            assert bg_ready is not None
            done[model] = h.data_access(ADDR + 64, 5)
            assert done[model] < bg_ready  # both models promote somehow
        # ... but only coalescing promotes to true demand bus priority.
        assert done["coalescing"] <= done["blocking"]

    def test_prefetch_to_inflight_line_is_reclassified(self):
        # Fills are eager in the tag array, so "in flight but not in L1"
        # means the line was conflict-evicted while its fill is pending.
        set_stride = 256  # sets * line for the tiny L1
        blk, nb = hier("blocking"), hier("coalescing")
        for h in (blk, nb):
            h.data_access(ADDR, 1000)  # primary demand miss
            h.data_access(ADDR + set_stride, 1001)
            h.data_access(ADDR + 2 * set_stride, 1002)  # evicts ADDR line
            assert h.prefetch_request(ADDR + 8, 1005) is None
        assert blk.stats.prefetches_redundant == 1
        assert blk.stats.prefetches_coalesced == 0
        assert nb.stats.prefetches_redundant == 0
        assert nb.stats.prefetches_coalesced == 1
        assert nb.stats.mshr_coalesced == 1
        # the prefetch rides the demand entry's target list
        line = ADDR & ~(32 - 1)
        assert nb._mshr_entries[line][3] == 2

    def test_occupancy_peak_bounded_by_mshr_file(self):
        h = hier("coalescing")
        h.dtlb.translate(ADDR)
        for i in range(5 * h.cfg.max_outstanding_misses):
            h.data_access(ADDR + 64 * i, 100)
        peak = h.stats.mshr_occupancy_peak
        assert 2 <= peak <= h.cfg.max_outstanding_misses

    def test_mshr_occupancy_histogram_observed(self):
        h = hier("coalescing")
        obs = Telemetry()
        h.set_telemetry(obs)
        h.data_access(ADDR, 1000)
        h.data_access(ADDR + 64, 1001)
        hist = obs.registry.get("mem.mshr_occupancy")
        assert hist is not None
        assert sum(hist.counts) == 2


class TestFullModel:
    def test_critical_word_beats_full_line(self):
        full, co = hier("full"), hier("coalescing")
        t_full = full.data_access(ADDR, 1000)
        t_co = co.data_access(ADDR, 1000)
        assert t_full < t_co  # triggering word crosses the bus first
        assert full.stats.critical_word_returns == 1
        line = ADDR & ~(32 - 1)
        # the *line* still lands at the coalescing time (fill unchanged)
        assert full._inflight[line] == t_co

    def test_hit_during_refill_serves_before_line_lands(self):
        full, co = hier("full"), hier("coalescing")
        full.data_access(ADDR, 1000)
        line_ready = co.data_access(ADDR, 1000)
        t_full = full.data_access(ADDR + 4, line_ready - 20)
        t_co = co.data_access(ADDR + 4, line_ready - 20)
        assert t_full < t_co
        assert full.stats.refill_hits == 1

    def test_stores_never_take_critical_word_early_out(self):
        h = hier("full")
        h.data_access(ADDR, 1000, write=True)
        assert h.stats.critical_word_returns == 0


class TestWriteback:
    def _evict_dirty(self, h: MemoryHierarchy) -> None:
        set_stride = 256  # sets * line for the tiny L1
        h.data_access(ADDR, 0, write=True)  # dirty fill
        h.data_access(ADDR + set_stride, 2000)
        h.data_access(ADDR + 2 * set_stride, 4000)  # evicts dirty ADDR

    def test_writeback_counters(self):
        for model in MODELS:
            h = hier(model)
            self._evict_dirty(h)
            assert h.stats.writebacks_l1 == 1
            wb = h.cfg.l2_bus.cycles_for(h.cfg.dl1.line)
            assert h.stats.writeback_bus_cycles == wb

    def test_victim_drain_occupies_demand_bus_slots(self):
        blk, nb = hier("blocking"), hier("coalescing")
        for h in (blk, nb):
            self._evict_dirty(h)
        wb = blk.cfg.l2_bus.cycles_for(blk.cfg.dl1.line)
        # blocking: background-only traffic; non-blocking: the victim
        # holds the demand port until it has drained.
        assert nb._l2_bus_demand == blk._l2_bus_demand + wb
        # A demand L2 hit queued behind the busy port pays exactly the
        # victim-drain cycles under the non-blocking model.
        t = blk._l2_bus_demand - blk.cfg.l2.latency - 30
        assert nb.data_access(ADDR, t) == blk.data_access(ADDR, t) + wb


# ----------------------------------------------------------------------
# The MSHR conservation laws, and the drills that prove they fire
# ----------------------------------------------------------------------

def _busy_nb_hierarchy(model: str = "coalescing") -> MemoryHierarchy:
    h = hier(model)
    h.dtlb.translate(ADDR)
    for i in range(6):
        h.data_access(ADDR + 64 * i, 100)
    h.data_access(ADDR + 4, 101)  # one coalesced join
    return h


class TestMshrLaws:
    def test_clean_run_has_no_violations(self):
        assert _busy_nb_hierarchy().audit_check() == []
        assert _busy_nb_hierarchy("full").audit_check() == []

    @pytest.mark.parametrize("law,corrupt", [
        ("mshr-conservation",
         lambda st: setattr(st, "mshrs_allocated", st.mshrs_allocated + 1)),
        ("mshr-coalesce-accounting",
         lambda st: setattr(st, "mshr_coalesced", st.mshr_coalesced + 1)),
        ("mshr-target-accounting",
         lambda st: setattr(st, "mshr_targets", st.mshr_targets + 1)),
        ("mshr-occupancy",
         lambda st: setattr(st, "mshr_occupancy_peak", 99)),
    ])
    def test_each_law_fires_on_corruption(self, law, corrupt):
        h = _busy_nb_hierarchy()
        corrupt(h.stats)
        assert law in {inv for inv, __ in h.audit_check()}

    def test_laws_gated_off_under_blocking(self):
        h = hier("blocking")
        h.data_access(ADDR, 1000)
        h.stats.mshrs_allocated += 1  # would violate every nb law
        h.stats.mshr_coalesced += 1
        h.stats.mshr_targets += 1
        h.stats.mshr_occupancy_peak = 99
        assert h.audit_check() == []

    @pytest.mark.parametrize("model", ["coalescing", "full"])
    def test_corrupt_mshr_tracker_drill(self, model):
        cfg = small_config().with_overrides({"mshr_model": model})
        program = static_walk_program(24, pad=6)
        auditor = corrupt_mshr_tracker(Auditor(interval=64), after=0)
        simulate(program, cfg, audit=auditor)
        assert not auditor.ok
        assert any(v.invariant == "mshr-conservation"
                   for v in auditor.violations)

    def test_drill_inert_under_blocking(self):
        auditor = corrupt_mshr_tracker(Auditor(interval=64), after=0)
        simulate(static_walk_program(24, pad=6), small_config(),
                 audit=auditor)
        assert auditor.ok  # the nb laws are gated off

    def test_fault_plan_routes_the_mshr_drill(self):
        cells = audit_workloads(
            machine="small", workloads=["treeadd"], schemes=["base", "dbp"],
            interval=64, faults=parse_fault_plan("treeadd//dbp=corrupt"),
            mshr_model="coalescing",
        )
        by_scheme = {c.scheme: c for c in cells}
        drilled = by_scheme["dbp"]
        assert drilled.corrupted and not drilled.ok
        assert any(v.invariant == "mshr-conservation"
                   for v in drilled.violations)
        clean = by_scheme["base"]
        assert not clean.corrupted and clean.ok


# ----------------------------------------------------------------------
# Property: engine equivalence under every model
# ----------------------------------------------------------------------

class TestEngineEquivalence:
    @given(
        n=st.integers(min_value=2, max_value=24),
        node_bytes=st.sampled_from([8, 16, 24, 32]),
        engine=st.sampled_from(["none", "dbp", "hardware"]),
    )
    @settings(max_examples=8, deadline=None)
    def test_table_and_reference_identical_per_model(
        self, n, node_bytes, engine
    ):
        program, __ = assemble_list_walk(n, node_bytes=node_bytes)
        # Commit streams are architectural: identical under every model.
        div = diff_commit_streams(program)
        assert div is None, div.describe()
        for model in MODELS:
            cfg = small_config().with_overrides({"mshr_model": model})
            table = simulate(program, cfg, engine=engine)
            ref = reference_simulate(program, cfg, engine=engine)
            assert diff_results(table, ref, ignore=("telemetry",)) == []


# ----------------------------------------------------------------------
# Property: the models form a monotone performance ladder
# ----------------------------------------------------------------------

class TestMonotonicity:
    @given(
        n=st.integers(min_value=4, max_value=48),
        pad=st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=12, deadline=None)
    def test_full_le_coalescing_le_blocking(self, n, pad):
        program = static_walk_program(n, pad)
        cycles = {}
        for model in MODELS:
            cfg = small_config().with_overrides({"mshr_model": model})
            cycles[model] = simulate(program, cfg).cycles
        assert cycles["full"] <= cycles["coalescing"] <= cycles["blocking"]

    def test_miss_heavy_walk_actually_improves(self):
        # Guard against the ladder holding vacuously: on a long
        # one-node-per-line chase, `full` must beat `blocking` outright.
        program = static_walk_program(64, pad=6)
        cfg = small_config()
        blocking = simulate(program, cfg).cycles
        full = simulate(
            program, cfg.with_overrides({"mshr_model": "full"})
        ).cycles
        assert full < blocking

    @pytest.mark.parametrize("workload", ["treeadd", "em3d", "health"])
    def test_olden_workloads_monotone_under_hardware_jpp(self, workload):
        from repro.workloads import get_workload, workload_class

        w = get_workload(workload, **workload_class(workload).test_params())
        program = w.build("baseline").program
        cycles = []
        for model in MODELS:
            cfg = small_config().with_overrides({"mshr_model": model})
            cycles.append(simulate(program, cfg, engine="hardware").cycles)
        assert cycles[2] <= cycles[1] <= cycles[0]
