"""The scheme zoo: engine behavior, bounded memory, interpreter lockstep.

Three layers of coverage for the four zoo engines (pointer-chase,
stride, cdp, foresight):

* behavior on controlled programs — each engine actually prefetches on
  the access pattern it was built for, and its ``audit_check`` comes
  back clean after a real run;
* bounded memory — a Hypothesis flood of 10^5 *distinct* addresses
  through each engine's hooks must leave every per-address structure
  under its declared capacity (the PR-5 ``_recent_chase`` failure mode,
  now guarded by :class:`repro.prefetch.bounded.BoundedClockMap`);
* interpreter lockstep — ``simulate`` and ``reference_simulate`` timing
  must stay bit-identical with each zoo engine attached (the same
  property :mod:`tests.test_sim_engines` pins for the paper's engines).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Assembler, simulate, small_config
from repro.audit.diff import reference_simulate
from repro.cpu import make_engine
from repro.cpu.timing import TimingModel
from repro.harness import get_scheme, scheme_names
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.isa.registers import A0, A1, T0, T1, T2, V0, ZERO
from repro.prefetch import BoundedClockMap
from repro.prefetch.engines import ENGINES, DBPEngine

from tests.conftest import assemble_list_walk
from tests.test_engines import walk_twice

ZOO = ("pointer-chase", "stride", "cdp", "foresight")


# ----------------------------------------------------------------------
# Registration: engines, schemes, descriptions
# ----------------------------------------------------------------------

class TestRegistration:
    @pytest.mark.parametrize("name", ZOO)
    def test_engine_registered(self, name):
        assert name in ENGINES.names()
        assert ENGINES.get(name).name == name

    @pytest.mark.parametrize("name", ZOO)
    def test_scheme_registered_with_description(self, name):
        assert name in scheme_names()
        scheme = get_scheme(name)
        assert scheme.engine == name
        assert scheme.variant == "baseline"  # hardware-side: no code changes
        assert scheme.description

    @pytest.mark.parametrize("name", ZOO)
    def test_make_engine_resolves(self, name):
        engine = make_engine(name, small_config())
        assert engine.name == name


# ----------------------------------------------------------------------
# Behavior on controlled programs
# ----------------------------------------------------------------------

def assemble_array_sweep(words: int = 64, passes: int = 3):
    """Repeated stride-4 sweeps over a word array (stride's home turf)."""
    a = Assembler()
    arr = a.array(list(range(1, words + 1)))
    res = a.word(0)
    a.label("main")
    a.li(T0, passes)
    a.label("pass")
    a.beqz(T0, "done")
    a.li(T1, arr)
    a.li(T2, arr + 4 * words)
    a.label("sweep")
    a.bge(T1, T2, "next")
    a.lw(V0, T1, 0)
    a.addi(T1, T1, 4)
    a.j("sweep")
    a.label("next")
    a.addi(T0, T0, -1)
    a.j("pass")
    a.label("done")
    a.li(A0, res)
    a.sw(V0, A0, 0)
    a.halt()
    return a.assemble("array_sweep")


def assemble_walk_rounds(n: int, rounds: int = 2):
    """Build an n-node list, then run ``rounds`` traversals through the
    SAME static walk loop.  Round 2 re-enters a structure whose loop
    PCs went recurrent in round 1 — the foresight trigger."""
    a = Assembler()
    res = a.word(0)
    head = a.word(0)
    a.label("main")
    a.li(T0, n)
    a.label("build")
    a.beqz(T0, "rounds")
    a.alloc(T1, ZERO, 16)
    a.sw(T0, T1, 0)
    a.li(A0, head)
    a.lw(T2, A0, 0)
    a.sw(T2, T1, 4)
    a.sw(T1, A0, 0)
    a.addi(T0, T0, -1)
    a.j("build")
    a.label("rounds")
    a.li(A1, rounds)
    a.li(T0, 0)
    a.label("round")
    a.beqz(A1, "done")
    a.li(A0, head)
    a.lw(T1, A0, 0, tag="lds")
    a.label("wloop")
    a.beqz(T1, "next_round")
    a.lw(V0, T1, 0, pad=16, tag="lds")
    a.add(T0, T0, V0)
    a.lw(T1, T1, 4, pad=16, tag="lds")
    a.j("wloop")
    a.label("next_round")
    a.addi(A1, A1, -1)
    a.j("round")
    a.label("done")
    a.li(A0, res)
    a.sw(T0, A0, 0)
    a.halt()
    return a.assemble("walk_rounds"), res


class TestZooBehavior:
    def test_pointer_chase_walks_ahead(self, tiny_cfg):
        program, __ = assemble_list_walk(48)
        engine = make_engine("pointer-chase", tiny_cfg)
        res = TimingModel(program, tiny_cfg, engine).run()
        assert res.engine.chained_prefetches > 0
        assert res.engine.extra.get("tu_hops", 0) > 0
        assert engine.audit_check(res.cycles) == []

    def test_pointer_chase_unit_is_a_resource(self, tiny_cfg):
        # Two triggers at the same instant: the second finds the unit
        # busy and is dropped, not queued.
        engine = make_engine("pointer-chase", tiny_cfg)
        program, __ = assemble_list_walk(32)
        TimingModel(program, tiny_cfg, engine).run()
        engine._tu_free = 10_000_000
        before = engine.stats.extra.get("tu_busy_drops", 0)
        engine._walk(0, 0x2000_0000, 5_000_000)
        assert engine.stats.extra["tu_busy_drops"] == before + 1

    def test_stride_covers_array_sweeps(self, tiny_cfg):
        engine = make_engine("stride", tiny_cfg)
        res = TimingModel(assemble_array_sweep(), tiny_cfg, engine).run()
        assert res.engine.chained_prefetches > 0
        assert res.hierarchy.prefetches_useful > 0
        assert engine.audit_check(res.cycles) == []

    def test_stride_confidence_warms_up(self, tiny_cfg):
        # The first two strided accesses only train; no prefetch until
        # confidence reaches the threshold.
        engine = make_engine("stride", tiny_cfg)
        program = assemble_array_sweep(words=3, passes=1)
        res = TimingModel(program, tiny_cfg, engine).run()
        assert res.engine.chained_prefetches == 0

    def test_cdp_chases_pointer_shaped_values(self, tiny_cfg):
        program, __ = assemble_list_walk(48)
        engine = make_engine("cdp", tiny_cfg)
        res = TimingModel(program, tiny_cfg, engine).run()
        assert res.engine.chained_prefetches > 0
        assert engine.audit_check(res.cycles) == []

    def test_foresight_bursts_at_structure_entry(self, tiny_cfg):
        # Round 2 re-enters the (now learned) structure: the walk load
        # is recurrent but its base was produced outside the recurrence
        # — a structure entry.
        # 200 nodes (3.2 KiB) overflow the tiny L2, so round 2 re-enters
        # a cold structure and the burst issues real prefetches.
        program, __ = assemble_walk_rounds(200)
        engine = make_engine("foresight", tiny_cfg)
        res = TimingModel(program, tiny_cfg, engine).run()
        assert res.engine.extra.get("structure_entries", 0) >= 1
        assert res.engine.extra.get("foresight_nodes", 0) >= 1
        assert res.engine.chained_prefetches > 0
        assert engine.audit_check(res.cycles) == []

    @pytest.mark.parametrize("name", ZOO)
    def test_audit_clean_after_real_runs(self, tiny_cfg, name):
        engine = make_engine(name, tiny_cfg)
        for program, __ in (assemble_list_walk(24), walk_twice(16),
                            assemble_walk_rounds(16)):
            TimingModel(program, tiny_cfg, engine).run()
        assert engine.audit_check(10**9) == []


# ----------------------------------------------------------------------
# BoundedClockMap: the shared eviction helper
# ----------------------------------------------------------------------

class TestBoundedClockMap:
    def test_fresh_within_window_only(self):
        m = BoundedClockMap(window=10, capacity=100)
        m.note("k", 5)
        assert m.fresh("k", 14)
        assert not m.fresh("k", 15)
        assert not m.fresh("other", 5)

    def test_check_is_test_and_set(self):
        m = BoundedClockMap(window=10, capacity=100)
        assert not m.check("k", 0)   # first sight: recorded
        assert m.check("k", 5)       # fresh: suppressed
        assert not m.check("k", 50)  # expired: re-recorded

    def test_burst_inside_one_window_stays_bounded(self):
        m = BoundedClockMap(window=1000, capacity=16)
        for i in range(200):
            m.note(i, 3)
        assert len(m) <= 16
        assert m.audit_check("t") == []

    def test_out_of_order_times_never_roll_clock_back(self):
        m = BoundedClockMap(window=10, capacity=100)
        m.note("a", 100)
        m.note("b", 3)  # stale timestamp: clock must not regress
        assert m._clock == 100
        assert m.audit_check("t") == []

    def test_old_entries_age_out(self):
        m = BoundedClockMap(window=8, capacity=4)
        for i in range(64):
            m.note(i, i * 4)
        assert len(m) <= 4
        assert 63 in m and 0 not in m

    @pytest.mark.parametrize("window,capacity", [(0, 4), (4, 0), (-1, -1)])
    def test_rejects_nonpositive_bounds(self, window, capacity):
        with pytest.raises(ValueError):
            BoundedClockMap(window, capacity)

    @given(st.lists(st.tuples(st.integers(0, 500), st.integers(0, 10_000)),
                    max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_capacity_invariant_under_any_schedule(self, ops):
        m = BoundedClockMap(window=64, capacity=32)
        for key, t in ops:
            m.note(key, t)
            assert len(m) <= 32
            assert m.audit_check("t") == []


# ----------------------------------------------------------------------
# Bounded memory under a 10^5-distinct-address flood
# ----------------------------------------------------------------------

class _FloodHierarchy:
    """Nothing is ever cached; every fill takes one memory latency."""

    def probe_cached(self, addr, time):
        return False

    def prefetch_request(self, addr, time, kind="chained", pc=None):
        return time + 70


class _FloodMemory:
    """All peeks read 0: chains end immediately, keeping walks cheap."""

    def peek(self, addr):
        return 0


FLOOD = 100_000


class TestBoundedMemoryFlood:
    """10^5 distinct addresses through each engine's hooks: every
    per-address structure must stay under its declared bound and the
    engine's own audit must stay clean (the ISSUE-10 regression drill
    for the ``DBPEngine._recent_chase`` failure class)."""

    def _flooded(self, name, seed):
        cfg = small_config()
        engine = ENGINES.get(name)()
        heap_lo = 0x1000
        engine.attach(_FloodHierarchy(), _FloodMemory(),
                      heap_lo, heap_lo + 64 * FLOOD + 64, cfg)
        inst = Instruction(Op.LW, rd=2, rs1=3, tag="lds")
        inst.index = 7
        if isinstance(engine, DBPEngine):
            # Seed the self-recurrence so commit hooks take the chasing
            # paths (the expensive, per-address-state ones).
            for __ in range(4):
                engine.predictor.learn(7, 7, 4)
            engine.recurrent_pcs.add(7)
        t = 0
        for i in range(FLOOD):
            # Distinct, line-disjoint, 4-aligned heap addresses.
            addr = heap_lo + 64 * ((seed + i) % FLOOD)
            t += 3
            if name == "stride":
                # Half the flood cycles through distinct PCs (RPT churn),
                # half trains one confident stride (recent-line churn).
                inst.index = i if i % 2 else 31337
                engine.on_load_issue(inst, addr, t)
                inst.index = 7
            else:
                engine.on_load_commit(inst, addr, addr, t, None, None)
        return engine, t

    @pytest.mark.parametrize("name", ZOO)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=2, deadline=None)
    def test_structures_stay_bounded(self, name, seed):
        engine, now = self._flooded(name, seed)
        assert engine.audit_check(now) == []
        if name == "pointer-chase":
            assert len(engine._visited) <= engine.VISIT_CAPACITY
        elif name == "stride":
            assert len(engine._rpt) <= engine.TABLE_ENTRIES
            assert len(engine._recent) <= engine.RECENT_CAPACITY
        elif name == "cdp":
            assert len(engine._recent) <= engine.RECENT_CAPACITY
        elif name == "foresight":
            assert len(engine._entries) <= engine.ENTRY_CAPACITY


# ----------------------------------------------------------------------
# Table-vs-reference lockstep with each zoo engine attached
# ----------------------------------------------------------------------

def _mixed_program(n_nodes, arr_passes, seed):
    """Array sweep (feeds stride) + double list walk (feeds the pointer
    schemes), sized/seeded by Hypothesis."""
    a = Assembler()
    arr = a.array([(seed * (i + 3)) % 509 for i in range(16)])
    res = a.word(0)
    head = a.word(0)
    a.label("main")
    a.li(T0, arr_passes)
    a.label("apass")
    a.beqz(T0, "build_start")
    a.li(T1, arr)
    a.li(T2, arr + 64)
    a.label("aloop")
    a.bge(T1, T2, "anext")
    a.lw(V0, T1, 0)
    a.addi(T1, T1, 4)
    a.j("aloop")
    a.label("anext")
    a.addi(T0, T0, -1)
    a.j("apass")
    a.label("build_start")
    a.li(T0, n_nodes)
    a.label("build")
    a.beqz(T0, "walks")
    a.alloc(T1, ZERO, 16)
    a.sw(T0, T1, 0)
    a.li(A0, head)
    a.lw(T2, A0, 0)
    a.sw(T2, T1, 4)
    a.sw(T1, A0, 0)
    a.addi(T0, T0, -1)
    a.j("build")
    a.label("walks")
    for w in range(2):
        a.li(T0, 0)
        a.li(A0, head)
        a.lw(T1, A0, 0, tag="lds")
        a.label(f"wloop{w}")
        a.beqz(T1, f"wdone{w}")
        a.lw(V0, T1, 0, pad=16, tag="lds")
        a.add(T0, T0, V0)
        a.lw(T1, T1, 4, pad=16, tag="lds")
        a.j(f"wloop{w}")
        a.label(f"wdone{w}")
    a.li(A0, res)
    a.sw(T0, A0, 0)
    a.halt()
    return a.assemble("zoo_lockstep")


class TestZooLockstep:
    @given(engine=st.sampled_from(ZOO),
           n=st.integers(min_value=2, max_value=10),
           passes=st.integers(min_value=0, max_value=3),
           seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=16, deadline=None)
    def test_timing_results_identical(self, engine, n, passes, seed):
        program = _mixed_program(n, passes, seed)
        cfg = small_config()
        table = simulate(program, cfg, engine=engine)
        ref = reference_simulate(program, cfg, engine=engine)
        assert ref.cycles == table.cycles
        assert ref.to_dict() == table.to_dict()
