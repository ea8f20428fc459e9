"""Out-of-order timing model behaviour on controlled programs."""

import pytest

from repro import Assembler, get_workload, simulate, simulate_decomposed, small_config
from repro.audit import Auditor
from repro.cpu.timing import TimingModel, _next_periodic, heap_range, periodic_due
from repro.harness import small_params
from repro.isa.program import HEAP_BASE
from repro.isa.registers import A0, T0, T1, T2, T3, T4, T5, ZERO
from repro.obs import Profiler

from tests.conftest import assemble_list_walk, assemble_loop_sum


def _program(emit, n_pad_nops=0):
    a = Assembler()
    a.label("main")
    emit(a)
    for __ in range(n_pad_nops):
        a.nop()
    a.halt()
    return a.assemble()


class TestDataflow:
    def test_dependent_chain_serializes(self, cfg):
        """A chain of dependent multiplies costs ~n * latency."""
        n = 40

        def chain(a):
            a.li(T0, 3)
            for __ in range(n):
                a.mul(T0, T0, T0)
                a.andi(T0, T0, 0xFFFF)

        res = simulate(_program(chain), cfg)
        # each pair mul(3)+andi(1) is serial: >= 4 cycles per iteration
        assert res.cycles >= n * 4

    def test_independent_ops_overlap(self, cfg):
        """Independent multiplies pipeline through the single multiplier."""
        n = 40

        def indep(a):
            for i in range(n):
                a.li(T0 + i % 4, i)
                a.mul(T0 + i % 4, T0 + i % 4, T0 + i % 4)

        def dep(a):
            a.li(T0, 3)
            for __ in range(n):
                a.mul(T0, T0, T0)
                a.andi(T0, T0, 0xFFFF)  # keep values bounded

        dep_cycles = simulate(_program(dep), cfg).cycles
        indep_cycles = simulate(_program(indep), cfg).cycles
        assert indep_cycles < dep_cycles

    def test_issue_width_bounds_ipc(self, cfg):
        res = simulate(_program(lambda a: [a.addi(T0, ZERO, 1) for __ in range(400)]), cfg)
        assert res.ipc <= cfg.issue_width + 0.5

    def test_ipc_reasonable_for_simple_loop(self, cfg):
        program, res_addr = assemble_loop_sum(200)
        res = simulate(program, cfg)
        assert 0.3 < res.ipc <= 4.0


class TestMemoryBehaviour:
    def test_cold_misses_dominate_list_walk(self, tiny_cfg):
        program, __ = assemble_list_walk(64)
        real, dec = simulate_decomposed(program, tiny_cfg)
        assert dec.memory > dec.compute  # pointer chase is memory bound
        assert real.lds_loads > 0

    def test_perfect_memory_faster(self, tiny_cfg):
        program, __ = assemble_list_walk(64)
        real = simulate(program, tiny_cfg)
        perfect = simulate(program, tiny_cfg.perfect())
        assert perfect.cycles < real.cycles

    def test_store_to_load_forwarding(self, cfg):
        """A load right after a store to the same address is fast."""

        def emit(a):
            buf = a.word(0)
            a.li(T0, buf)
            a.li(T1, 5)
            # long-latency producer for the store data
            a.li(T2, 7)
            for __ in range(3):
                a.mul(T2, T2, T2)
                a.andi(T2, T2, 0xFFFF)
            a.sw(T2, T0, 0)
            a.lw(T3, T0, 0)   # forwards from the store
            a.add(T4, T3, T3)

        res = simulate(_program(emit), cfg)
        assert res.cycles < 200

    def test_loads_wait_for_prior_store_addresses(self, cfg):
        """A load cannot issue before an earlier store's address resolves."""

        def emit(a):
            buf = a.array([1, 2])
            a.li(T0, buf)
            a.li(T5, 3)
            for __ in range(4):  # slow address computation
                a.mul(T5, T5, T5)
                a.andi(T5, T5, 4)  # word-aligned: 0 or 4
            a.add(T1, T0, T5)
            a.sw(ZERO, T1, 0)       # store with late-resolving address
            a.lw(T2, T0, 4)         # independent load must still wait

        def emit_no_store(a):
            buf = a.array([1, 2])
            a.li(T0, buf)
            a.li(T5, 3)
            for __ in range(4):
                a.mul(T5, T5, T5)
                a.andi(T5, T5, 4)  # word-aligned: 0 or 4
            a.add(T1, T0, T5)
            a.lw(T2, T0, 4)

        with_store = simulate(_program(emit, n_pad_nops=0), cfg).cycles
        without = simulate(_program(emit_no_store), cfg).cycles
        assert with_store >= without

    def test_stall_attribution_sums_to_cycles(self, cfg):
        program, __ = assemble_list_walk(32)
        model = TimingModel(program, cfg, profile=Profiler())
        res = model.run()
        assert sum(model.stall_attribution.values()) == res.cycles


class TestControlFlow:
    def test_predictable_loop_cheap(self, cfg):
        program, __ = assemble_loop_sum(500)
        res = simulate(program, cfg)
        assert res.branch.mispredict_ratio < 0.05

    def test_data_dependent_branches_mispredict(self, cfg):
        """Pseudo-random branch directions cause mispredictions."""

        def emit(a):
            a.li(T0, 12345)
            a.li(T1, 200)       # iterations
            a.li(T2, 0)
            a.label("loop")
            a.li(T3, 1103515245)
            a.mul(T0, T0, T3)
            a.addi(T0, T0, 12345)
            a.andi(T0, T0, 0x7FFFFFFF)
            a.srli(T3, T0, 13)
            a.andi(T3, T3, 1)
            a.beqz(T3, "skip")
            a.addi(T2, T2, 1)
            a.label("skip")
            a.addi(T1, T1, -1)
            a.bnez(T1, "loop")
            a.halt()

        a = Assembler()
        a.label("main")
        emit(a)
        res = simulate(a.assemble(), cfg)
        assert res.branch.cond_mispredicts > 20

    def test_calls_and_returns_predicted(self, cfg):
        a = Assembler()
        a.label("main")
        a.li(T0, 100)
        a.label("loop")
        a.jal("leaf")
        a.addi(T0, T0, -1)
        a.bnez(T0, "loop")
        a.halt()
        a.label("leaf")
        a.addi(T1, T1, 1)
        a.ret()
        res = simulate(a.assemble(), cfg)
        assert res.branch.return_mispredicts <= 2

    def test_mispredicts_cost_cycles(self, cfg):
        """The same instruction mix runs slower with unpredictable branches."""

        def body(a, predictable):
            a.li(T0, 98765)
            a.li(T1, 300)
            a.li(T2, 0)
            a.label("loop")
            a.li(T3, 1103515245)
            a.mul(T0, T0, T3)
            a.addi(T0, T0, 12345)
            a.andi(T0, T0, 0x7FFFFFFF)
            if predictable:
                a.li(T3, 0)
            else:
                a.srli(T3, T0, 13)
                a.andi(T3, T3, 1)
            a.beqz(T3, "skip")
            a.addi(T2, T2, 1)
            a.label("skip")
            a.addi(T1, T1, -1)
            a.bnez(T1, "loop")
            a.halt()

        progs = []
        for predictable in (True, False):
            a = Assembler()
            a.label("main")
            body(a, predictable)
            progs.append(a.assemble())
        fast = simulate(progs[0], cfg)
        slow = simulate(progs[1], cfg)
        # account for the two-instruction difference in loop body
        assert slow.cycles > fast.cycles - 600


def test_heap_range_covers_allocator():
    lo, hi = heap_range(HEAP_BASE)
    assert lo == HEAP_BASE
    assert hi > HEAP_BASE + (1 << 24)


class TestPeriodicDue:
    """Regression for the truthy-at-zero pruning predicate: periodic
    maintenance must never fire at commit zero (``0 % n == 0`` is truthy
    as a modulus test but commit 0 has nothing to prune or audit)."""

    def test_never_due_at_zero(self):
        from repro.cpu.timing import periodic_due

        assert not periodic_due(0, 64)
        assert not periodic_due(0, 1)

    def test_due_exactly_on_multiples(self):
        from repro.cpu.timing import periodic_due

        assert periodic_due(64, 64)
        assert periodic_due(128, 64)
        assert not periodic_due(63, 64)
        assert not periodic_due(65, 64)

    def test_interval_one_fires_every_commit_after_zero(self):
        from repro.cpu.timing import periodic_due

        assert [n for n in range(5) if periodic_due(n, 1)] == [1, 2, 3, 4]

    def test_issued_at_bookkeeping_stays_bounded(self, tiny_cfg):
        # End-to-end: a long run must not accumulate an issue-slot entry
        # per dynamic instruction (the map is pruned behind the window).
        from repro.cpu.timing import (
            _ISSUED_AT_PRUNE_INTERVAL,
            _ISSUED_AT_PRUNE_THRESHOLD,
        )

        assert _ISSUED_AT_PRUNE_THRESHOLD + _ISSUED_AT_PRUNE_INTERVAL > 0
        program, __ = assemble_loop_sum(200)
        from repro import simulate
        from repro.audit import Auditor

        auditor = Auditor(interval=256, strict=True)
        simulate(program, tiny_cfg, audit=auditor)
        assert auditor.ok  # includes the issued-at-bound invariant


class TestNextPeriodic:
    """The hot loop tests one precomputed commit count per instruction
    instead of two modulus checks; the due points must be exactly the
    union of the prune cadence and the audit cadence."""

    @pytest.mark.parametrize("audit_every", [0, 1, 7, 64, 65536, 100_000])
    def test_due_points_match_periodic_due(self, audit_every):
        from repro.cpu.timing import _ISSUED_AT_PRUNE_INTERVAL as prune

        horizon = 3 * prune + 5
        expected = [
            n for n in range(horizon)
            if periodic_due(n, prune)
            or (audit_every and periodic_due(n, audit_every))
        ]
        got, n = [], 0
        while True:
            n = _next_periodic(n, audit_every)
            if n >= horizon:
                break
            got.append(n)
        assert got == expected

    def test_audit_sweeps_on_its_cadence(self, cfg):
        program, __ = assemble_loop_sum(200)
        auditor = Auditor(interval=97)
        res = simulate(program, cfg, audit=auditor)
        # One sweep per 97 commits, plus the end-of-run sweep.
        assert auditor.checks == res.instructions // 97 + 1

    def test_audit_sees_in_flight_occupancy(self, cfg):
        """The sweep gets the in-flight entries, not the fixed-length
        window/LSQ rings (whose length never changes)."""
        program = get_workload("health", **small_params("health")).build(
            "baseline").program
        auditor = Auditor(interval=97, strict=True)
        seen = []
        real_on_commit = auditor.on_commit

        def spy(n, cycle, rob=None, lsq=None, issued_at=None):
            seen.append((len(rob), len(lsq)))
            real_on_commit(n, cycle, rob=rob, lsq=lsq, issued_at=issued_at)

        auditor.on_commit = spy
        simulate(program, cfg, audit=auditor)
        robs, lsqs = zip(*seen)
        assert 0 < min(robs) < max(robs) <= cfg.window
        assert min(lsqs) < max(lsqs) <= cfg.lsq_entries


#: Cycle pins for machine shapes the golden table does not cover: 1-wide
#: and 8-wide pipelines with a tiny or huge window/LSQ, a single ALU and
#: memory port, slower FUs with a deeper front end and a larger
#: misprediction penalty, and the full MSHR model under window pressure.
#: Each stresses a different stage of the timing core's per-instruction
#: path (fetch groups, window/LSQ heads, FU heaps, issue slots, commit
#: width, redirects).
SHAPES = {
    "narrow": {"fetch_width": 1, "issue_width": 1, "commit_width": 1,
               "window": 8, "lsq_entries": 4},
    "wide": {"fetch_width": 8, "issue_width": 8, "commit_width": 8,
             "window": 128, "lsq_entries": 64, "func_units.int_alu": 1,
             "func_units.mem_ports": 1, "func_units.fp_add": 3},
    "slow-fu": {"func_units.int_alu_latency": 2, "func_units.mem_ports": 3,
                "func_units.fp_mul": 2, "front_pipeline_depth": 5,
                "branch_pred.misprediction_penalty": 7, "alloc_latency": 20},
    "full-mshr": {"mshr_model": "full", "window": 16, "lsq_entries": 8},
}
SHAPE_CYCLES = {
    ("treeadd", "none"): {"narrow": 5212, "wide": 4259, "slow-fu": 3484, "full-mshr": 2951},
    ("health", "hardware"): {"narrow": 9160, "wide": 8528, "slow-fu": 8613, "full-mshr": 6809},
    ("em3d", "dbp"): {"narrow": 9294, "wide": 7770, "slow-fu": 7315, "full-mshr": 7337},
    ("bh", "none"): {"narrow": 18180, "wide": 12434, "slow-fu": 10509, "full-mshr": 11924},
    ("tsp", "none"): {"narrow": 5206, "wide": 3204, "slow-fu": 3731, "full-mshr": 3524},
}
#: (conditional mispredicts, BTB misses): the predictor trains on actual
#: outcomes only, so these do not depend on the machine shape.
BRANCH_STATS = {
    "treeadd": (57, 10), "health": (38, 11), "em3d": (27, 18),
    "bh": (113, 23), "tsp": (57, 7),
}


@pytest.mark.parametrize("workload,engine", sorted(SHAPE_CYCLES))
def test_machine_shape_cycle_pins(workload, engine):
    program = get_workload(workload, **small_params(workload)).build(
        "baseline").program
    for shape, overrides in SHAPES.items():
        res = simulate(program, small_config().with_overrides(overrides),
                       engine=engine)
        assert res.cycles == SHAPE_CYCLES[workload, engine][shape], shape
        assert (res.branch.cond_mispredicts,
                res.branch.btb_misses) == BRANCH_STATS[workload], shape
