"""Cross-module integration: paper-shape invariants at reduced scale.

These run medium-size workloads (bigger than unit-test params, smaller
than the bench defaults) and assert the *relationships* the paper's
evaluation is built on.
"""

import pytest

from repro import get_workload, simulate, simulate_decomposed, small_config
from repro.config import CacheConfig, MachineConfig


@pytest.fixture(scope="module")
def cfg():
    # small caches so medium workloads still miss
    return MachineConfig(
        il1=CacheConfig(size=4 * 1024, line=32, assoc=2, latency=1),
        dl1=CacheConfig(size=2 * 1024, line=32, assoc=2, latency=1),
        l2=CacheConfig(size=8 * 1024, line=64, assoc=4, latency=12),
    )


@pytest.fixture(scope="module")
def treeadd_runs(cfg):
    w = get_workload("treeadd", levels=9, passes=4, interval=8)
    out = {}
    base_prog = w.build("baseline").program
    out["base"] = simulate_decomposed(base_prog, cfg, engine="none")
    out["sw"] = simulate_decomposed(w.build("sw:queue").program, cfg, engine="software")
    out["coop"] = simulate_decomposed(
        w.build("coop:queue").program, cfg, engine="cooperative"
    )
    out["hw"] = simulate_decomposed(base_prog, cfg, engine="hardware")
    out["dbp"] = simulate_decomposed(base_prog, cfg, engine="dbp")
    return out


class TestTreeaddShapes:
    def test_baseline_memory_bound(self, treeadd_runs):
        __, dec = treeadd_runs["base"]
        assert dec.memory_fraction > 0.5

    def test_every_jpp_scheme_beats_baseline(self, treeadd_runs):
        base_total = treeadd_runs["base"][1].total
        for scheme in ("sw", "coop", "hw"):
            assert treeadd_runs[scheme][1].total < base_total, scheme

    def test_jpp_beats_dbp(self, treeadd_runs):
        dbp_total = treeadd_runs["dbp"][1].total
        assert treeadd_runs["sw"][1].total < dbp_total
        assert treeadd_runs["coop"][1].total < dbp_total

    def test_software_overhead_visible_in_compute(self, treeadd_runs):
        # jump-pointer creation + prefetch instructions cost compute time
        assert treeadd_runs["sw"][1].compute > treeadd_runs["base"][1].compute

    def test_hardware_has_no_compute_overhead(self, treeadd_runs):
        assert treeadd_runs["hw"][1].compute == treeadd_runs["base"][1].compute

    def test_memory_stall_reductions(self, treeadd_runs):
        base_mem = treeadd_runs["base"][1].memory
        for scheme in ("sw", "coop", "hw"):
            assert treeadd_runs[scheme][1].memory < base_mem, scheme


class TestComputeBoundIsLeftAlone:
    def test_power_hardware_harmless(self, cfg):
        w = get_workload("power", laterals=6, branches=4, leaves=3,
                         iterations=3, interval=8)
        base_prog = w.build("baseline").program
        base = simulate(base_prog, cfg)
        hw = simulate(base_prog, cfg, engine="hardware")
        assert hw.cycles <= base.cycles * 1.02

    def test_power_software_overhead_shows(self, cfg):
        w = get_workload("power", laterals=6, branches=4, leaves=3,
                         iterations=3, interval=8)
        base = simulate(w.build("baseline").program, cfg)
        sw = simulate(w.build("sw:queue").program, cfg, engine="software")
        assert sw.instructions > base.instructions


class TestLatencyScaling:
    def test_dbp_effectiveness_shrinks_with_latency(self, cfg):
        w = get_workload("health", levels=3, branching=4, npat=6,
                         iterations=8, interval=8)
        base_prog = w.build("baseline").program
        cuts = {}
        for latency in (70, 280):
            c = cfg.with_overrides({"memory_latency": latency})
            base = simulate(base_prog, c)
            base_perfect = simulate(base_prog, c.perfect())
            dbp = simulate(base_prog, c, engine="dbp")
            base_mem = base.cycles - base_perfect.cycles
            cuts[latency] = (base.cycles - dbp.cycles) / max(1, base_mem)
        assert cuts[280] <= cuts[70] + 0.05

    def test_baseline_slows_superlinearly(self, cfg):
        w = get_workload("health", levels=3, branching=4, npat=6,
                         iterations=8, interval=8)
        prog = w.build("baseline").program
        t70 = simulate(prog, cfg.with_overrides({"memory_latency": 70})).cycles
        t280 = simulate(
            prog, cfg.with_overrides({"memory_latency": 280})).cycles
        # the 4x-latency run is much slower (the scaled-down kernel keeps
        # part of its footprint cache-resident, so the paper's full 2.5x
        # appears only at bench scale — see test_paper_shapes::test_figure7)
        assert t280 > 1.4 * t70


class TestBandwidthAccounting:
    def test_prefetching_moves_more_bytes(self, cfg):
        w = get_workload("treeadd", levels=9, passes=2, interval=8)
        prog = w.build("baseline").program
        base = simulate(prog, cfg)
        hw = simulate(prog, cfg, engine="hardware")
        assert hw.hierarchy.bytes_l1_l2 >= base.hierarchy.bytes_l1_l2

    def test_bytes_conservation(self, cfg):
        w = get_workload("treeadd", levels=8, passes=1, interval=8)
        res = simulate(w.build("baseline").program, cfg)
        # every byte from memory crosses the L2 bus at some point:
        # L1<->L2 traffic is nonzero whenever memory traffic is
        assert res.hierarchy.bytes_l1_l2 > 0
        assert res.hierarchy.bytes_l2_mem > 0
