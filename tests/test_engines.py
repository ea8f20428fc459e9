"""Prefetch engines on controlled programs."""

import pytest

from repro import Assembler, get_workload, simulate, small_config
from repro.cpu import make_engine
from repro.cpu.timing import TimingModel
from repro.harness.schemes import scheme_plan
from repro.isa.registers import A0, T0, T1, T2, ZERO
from repro.workloads import workload_class

from tests.conftest import assemble_list_walk


def walk_twice(n: int, use_jpf: bool = False, jp_off: int = 8):
    """Build an n-node list ({value@0, next@4, [jp@8]}) with jump-pointers
    baked by software at build time, then walk it twice."""
    a = Assembler()
    res = a.word(0)
    head = a.word(0)
    tail_tab = a.space(n)  # creation-order node table for jp install
    a.label("main")
    a.li(T0, n)
    a.label("build")
    a.beqz(T0, "link_jp")
    a.alloc(T1, ZERO, 12)
    a.sw(T0, T1, 0)
    a.li(A0, head)
    a.lw(T2, A0, 0)
    a.sw(T2, T1, 4)
    a.sw(T1, A0, 0)
    # record address by index (descending creation)
    a.slli(T2, T0, 2)
    a.addi(T2, T2, tail_tab - 4)
    a.sw(T1, T2, 0)
    a.addi(T0, T0, -1)
    a.j("build")
    # install jump-pointers 4 ahead in traversal (ascending) order
    a.label("link_jp")
    a.li(T0, 0)
    a.label("jp_loop")
    a.li(T1, n - 4)
    a.bge(T0, T1, "walks")
    a.slli(T1, T0, 2)
    a.addi(T1, T1, tail_tab)
    a.lw(T2, T1, 0)       # node i
    a.lw(T1, T1, 16)      # node i+4
    a.sw(T1, T2, jp_off)
    a.addi(T0, T0, 1)
    a.j("jp_loop")
    a.label("walks")
    for w in range(2):
        a.li(T0, 0)
        a.li(A0, head)
        a.lw(T1, A0, 0, tag="lds")
        a.label(f"wloop{w}")
        a.beqz(T1, f"done{w}")
        if use_jpf:
            a.jpf(T1, jp_off)
        a.lw(T2, T1, 0, pad=16, tag="lds")
        a.add(T0, T0, T2)
        a.lw(T1, T1, 4, pad=16, tag="lds")
        a.j(f"wloop{w}")
        a.label(f"done{w}")
    a.li(A0, res)
    a.sw(T0, A0, 0)
    a.halt()
    return a.assemble("walk_twice"), res


class TestSoftwareEngine:
    def test_pf_fills_l1(self, tiny_cfg):
        a = Assembler()
        target = a.space(16)
        a.label("main")
        a.li(T0, target)
        a.pf(T0, 0)
        for __ in range(40):  # give the prefetch time to land
            a.nop()
        a.lw(T1, T0, 0)
        a.halt()
        res = simulate(a.assemble(), tiny_cfg, engine="software")
        assert res.engine.sw_prefetches == 1
        assert res.hierarchy.prefetches_useful >= 1

    def test_baseline_engine_ignores_pf(self, tiny_cfg):
        a = Assembler()
        target = a.space(16)
        a.label("main")
        a.li(T0, target)
        a.pf(T0, 0)
        a.halt()
        res = simulate(a.assemble(), tiny_cfg, engine="none")
        assert res.hierarchy.prefetches_requested == 0


class TestDBPEngine:
    def test_learns_list_dependences(self, tiny_cfg):
        program, __ = assemble_list_walk(48)
        engine = make_engine("dbp", tiny_cfg)
        TimingModel(program, tiny_cfg, engine).run()
        assert engine.stats.correlations_learned >= 2
        assert engine.recurrent_pcs  # next-pointer load is self-recurrent

    def test_chained_prefetches_issued(self, tiny_cfg):
        program, __ = assemble_list_walk(48)
        res = simulate(program, tiny_cfg, engine="dbp")
        assert res.engine.chained_prefetches > 0
        assert res.hierarchy.prefetches_useful > 0

    def test_budget_bounds_single_trigger(self, tiny_cfg):
        engine = make_engine("dbp", tiny_cfg)
        program, __ = assemble_list_walk(8)
        model = TimingModel(program, tiny_cfg, engine)
        model.run()
        # artificial wide fan-out: one producer with many consumers
        for c in range(40):
            engine.predictor.learn(9999, 5000 + c, 4 * c)
        before = engine.stats.chained_prefetches
        engine._trigger(9999, 0x2000_0000, 10_000_000)
        assert engine.stats.chained_prefetches - before <= engine.CHASE_BUDGET


class TestCooperativeEngine:
    def test_jpf_triggers_jump_prefetch(self, tiny_cfg):
        program, res = walk_twice(40, use_jpf=True)
        r = simulate(program, tiny_cfg, engine="cooperative")
        assert r.engine.jump_prefetches > 0

    def test_jpf_invalid_pointer_counted(self, tiny_cfg):
        a = Assembler()
        w = a.word(0)  # jump-pointer slot holds 0 -> invalid
        a.label("main")
        a.li(T0, w)
        a.jpf(T0, 0)
        a.halt()
        r = simulate(a.assemble(), tiny_cfg, engine="cooperative")
        assert r.engine.jp_invalid == 1

    def test_correlator_learns_jpf_consumers(self, tiny_cfg):
        program, __ = walk_twice(40, use_jpf=True)
        engine = make_engine("cooperative", tiny_cfg)
        TimingModel(program, tiny_cfg, engine).run()
        from repro.isa.opcodes import Op

        jpf_pcs = [i.index for i in program.instructions if i.op is Op.JPF]
        assert any(engine.predictor.lookup_quiet(pc) for pc in jpf_pcs)


class TestHardwareEngine:
    def test_installs_and_uses_jump_pointers(self, tiny_cfg):
        program, __ = walk_twice(48, use_jpf=False)
        engine = make_engine("hardware", tiny_cfg)
        res = TimingModel(program, tiny_cfg, engine).run()
        assert engine.stats.jp_stores > 0          # queue method ran
        assert engine.jqt.stats.installs > 0
        assert engine.stats.jump_prefetches > 0    # second walk used them

    def test_no_padding_no_jump_pointers(self, tiny_cfg):
        # Nodes allocated at exactly a class size: no padding anywhere.
        a = Assembler()
        head = a.word(0)
        a.label("main")
        a.li(T0, 32)
        a.label("build")
        a.beqz(T0, "walk")
        a.alloc(T1, ZERO, 8)  # {value, next}: 8 bytes = the full class
        a.sw(T0, T1, 0)
        a.li(A0, head)
        a.lw(T2, A0, 0)
        a.sw(T2, T1, 4)
        a.sw(T1, A0, 0)
        a.addi(T0, T0, -1)
        a.j("build")
        a.label("walk")
        a.li(A0, head)
        a.lw(T1, A0, 0, tag="lds")
        a.label("wloop")
        a.beqz(T1, "done")
        a.lw(T1, T1, 4, tag="lds")  # pad=0: unannotated
        a.j("wloop")
        a.label("done")
        a.halt()
        engine = make_engine("hardware", tiny_cfg)
        TimingModel(a.assemble(), tiny_cfg, engine).run()
        assert engine.stats.jp_stores == 0
        assert engine.stats.jump_prefetches == 0

    def test_hardware_speeds_up_second_walk(self, tiny_cfg):
        program, __ = walk_twice(64)
        base = simulate(program, tiny_cfg, engine="none")
        hw = simulate(program, tiny_cfg, engine="hardware")
        assert hw.cycles < base.cycles


class TestEngineFactory:
    @pytest.mark.parametrize(
        "name,pb", [("none", False), ("software", False), ("dbp", True),
                    ("cooperative", True), ("hardware", True)]
    )
    def test_engine_kinds(self, tiny_cfg, name, pb):
        eng = make_engine(name, tiny_cfg)
        assert eng.name == name
        assert eng.uses_prefetch_buffer == pb

    def test_unknown_engine_rejected(self, tiny_cfg):
        from repro import ConfigError

        with pytest.raises(ConfigError):
            make_engine("magic", tiny_cfg)


class TestRechaseTableBound:
    """The DBP duplicate-suppression table must stay bounded (it used to
    grow one entry per distinct (consumer, line) forever)."""

    def _attached_dbp(self, tiny_cfg, n=64):
        program, __ = assemble_list_walk(n)
        engine = make_engine("dbp", tiny_cfg)
        simulate(program, tiny_cfg, engine=engine)
        return engine

    def _trigger_at(self, engine, time):
        """Run one chase step at ``time`` through the public trigger
        path, with the predictor stubbed to one consumer."""
        engine.predictor.lookup = lambda pc: [(9999, 0)]
        engine._trigger(1234, engine._heap_lo, time)

    def test_slack_derived_from_machine(self, tiny_cfg):
        engine = self._attached_dbp(tiny_cfg)
        # attach() must widen the slack beyond the dedup window itself:
        # chained fills run ahead of commit-time triggers.
        assert engine._chase_slack > engine.RECHASE_WINDOW

    def test_stale_entries_are_pruned(self, tiny_cfg):
        engine = self._attached_dbp(tiny_cfg)
        recent = engine._recent_chase
        recent.clear()
        # Stuff more-than-prune-min entries far in the past...
        for i in range(engine.RECHASE_PRUNE_MIN + 10):
            recent[(1, 64 * i)] = 100
        engine._chase_tmax = 100
        engine._chase_pruned_at = 100
        # ...then one trigger far in the future runs the eviction.
        self._trigger_at(engine, 100 + engine._chase_slack
                         + engine.RECHASE_WINDOW + 1)
        stale = [t for t in engine._recent_chase.values() if t == 100]
        assert not stale
        assert len(engine._recent_chase) < engine.RECHASE_PRUNE_MIN
        assert engine._chase_pruned_at == engine._chase_tmax

    def test_recent_entries_survive_pruning(self, tiny_cfg):
        engine = self._attached_dbp(tiny_cfg)
        recent = engine._recent_chase
        recent.clear()
        fresh = 10_000
        for i in range(engine.RECHASE_PRUNE_MIN + 10):
            recent[(1, 64 * i)] = fresh  # within slack of the new trigger
        engine._chase_tmax = fresh
        engine._chase_pruned_at = 0
        self._trigger_at(engine, fresh + engine.RECHASE_WINDOW)
        survivors = [t for t in engine._recent_chase.values() if t == fresh]
        assert len(survivors) == engine.RECHASE_PRUNE_MIN + 10

    def test_hard_cap_prunes_even_inside_window(self, tiny_cfg):
        engine = self._attached_dbp(tiny_cfg)
        recent = engine._recent_chase
        recent.clear()
        now = 50_000_000
        engine._chase_tmax = now
        engine._chase_pruned_at = now  # dedup window not yet elapsed
        for i in range(engine.RECHASE_TABLE_MAX + 1):
            recent[(1, 64 * i)] = now - engine._chase_slack - 1  # all stale
        self._trigger_at(engine, now)
        assert len(engine._recent_chase) < engine.RECHASE_PRUNE_MIN

    def test_audit_check_flags_runaway_table(self, tiny_cfg):
        engine = self._attached_dbp(tiny_cfg)
        assert engine.audit_check(0) == []
        for i in range(2 * engine.RECHASE_TABLE_MAX + 1):
            engine._recent_chase[(1, 64 * i)] = 0
        violations = engine.audit_check(0)
        assert any(inv == "rechase-table-bound" for inv, __ in violations)


#: Machine settings whose prefetch tables replace at the sizes below: an
#: on-chip jump-pointer table of 4 entries (the X1 ablation's smallest
#: point) and a 1-entry JQT beside an 8-entry dependence predictor.
TABLE_SETTINGS = {
    "onchip-4": {"prefetch.onchip_table_entries": 4},
    "tiny-tables": {"prefetch.jqt_entries": 1, "prefetch.dep_entries": 8},
}
#: (setting, scheme, workload, params over test_params) -> (cycles, JQT
#: entry evictions, predictor evictions, distinct on-chip homes,
#: correlator occupancy), all on ``small``.
TABLE_PINS = {
    ("onchip-4", "hardware", "em3d", ()): (7057, 0, 0, 48, 0),
    ("onchip-4", "hardware", "health", ()): (6969, 0, 0, 39, 0),
    ("onchip-4", "hardware", "treeadd", ()): (2985, 0, 0, 126, 0),
    ("tiny-tables", "hardware", "em3d", ()): (7049, 5, 20, 0, 0),
    ("tiny-tables", "hardware", "treeadd", ()): (2985, 125, 0, 0, 0),
    ("tiny-tables", "hardware", "mst", ()): (6489, 81, 2, 0, 0),
    ("tiny-tables", "cooperative", "em3d",
     (("n_e", 128), ("n_h", 128), ("iterations", 4))): (62344, 0, 46, 0, 64),
}


@pytest.mark.parametrize("key", sorted(TABLE_PINS), ids=lambda k: "-".join(k[:3]))
def test_prefetch_table_cycle_pins(key):
    """Cycle pins for the LRU-replaced JQT, dependence predictor, value
    correlator and on-chip jump-pointer table; each case asserts its path
    ran."""
    setting, scheme, workload, params = key
    cfg = small_config().with_overrides(TABLE_SETTINGS[setting])
    wl = get_workload(workload, **{**workload_class(workload).test_params(),
                                   **dict(params)})
    variant, engine_name = scheme_plan(wl, scheme)
    engine = make_engine(engine_name, cfg)
    homes = set()
    jqt = getattr(engine, "jqt", None)
    if jqt is not None:
        store = engine.storage.store

        def spy(timing_mem, home_addr, pad, target):
            homes.add(home_addr)
            return store(timing_mem, home_addr, pad, target)

        engine.storage.store = spy
    res = simulate(wl.build(variant).program, cfg, engine=engine)
    correlator = getattr(engine, "correlator", None)
    got = (
        res.cycles,
        jqt.stats.entry_evictions if jqt is not None else 0,
        engine.predictor.evicted,
        len(homes) if jqt is not None and engine.storage.onchip else 0,
        len(correlator._entries) if correlator is not None else 0,
    )
    assert got == TABLE_PINS[key]
    if setting == "onchip-4":
        assert len(engine.storage._table) == 4 < got[3]
    else:
        assert got[1] + got[2] > 0
    if correlator is not None:
        assert len(correlator._entries) == correlator._capacity
