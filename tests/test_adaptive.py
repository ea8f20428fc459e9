"""Adaptive jump intervals (the Section-6 future-work extension)."""

import dataclasses

from repro import simulate, small_config
from repro.config import PrefetchConfig
from repro.cpu import make_engine
from repro.cpu.timing import TimingModel
from repro.obs.outcomes import EARLY, LATE, TIMELY
from repro.prefetch.adaptive import AdaptiveJumpQueueTable

from tests.conftest import assemble_list_walk


def make_table(interval=4, max_interval=32):
    return AdaptiveJumpQueueTable(
        PrefetchConfig(jump_interval=interval), max_interval=max_interval
    )


def feed(table, pc, late, early, times):
    for __ in range(times):
        table.observe(pc, LATE if late else EARLY if early else TIMELY)


class TestAdaptation:
    def test_starts_at_configured_interval(self):
        t = make_table(interval=4)
        assert t.interval_of(7) == 4

    def test_late_feedback_widens(self):
        t = make_table(interval=4)
        feed(t, 7, late=True, early=False, times=t.ADAPT_EVERY)
        assert t.interval_of(7) == 8
        assert t.adapt_stats.widenings == 1

    def test_early_feedback_narrows(self):
        t = make_table(interval=8)
        feed(t, 7, late=False, early=True, times=t.ADAPT_EVERY)
        assert t.interval_of(7) == 4
        assert t.adapt_stats.narrowings == 1

    def test_timely_feedback_keeps_interval(self):
        t = make_table(interval=8)
        feed(t, 7, late=False, early=False, times=3 * t.ADAPT_EVERY)
        assert t.interval_of(7) == 8

    def test_mixed_feedback_below_vote_threshold(self):
        t = make_table(interval=8)
        for i in range(t.ADAPT_EVERY):
            t.observe(7, LATE if i % 2 == 0 else TIMELY)
        assert t.interval_of(7) == 8  # 50% late < 62.5% vote

    def test_bounded_above_and_below(self):
        t = make_table(interval=4, max_interval=8)
        feed(t, 7, late=True, early=False, times=10 * t.ADAPT_EVERY)
        assert t.interval_of(7) == 8
        t2 = make_table(interval=4)
        feed(t2, 9, late=False, early=True, times=10 * t2.ADAPT_EVERY)
        assert t2.interval_of(9) == t2.MIN_INTERVAL

    def test_per_pc_independence(self):
        t = make_table(interval=4)
        feed(t, 1, late=True, early=False, times=t.ADAPT_EVERY)
        assert t.interval_of(1) == 8
        assert t.interval_of(2) == 4

    def test_advance_uses_adapted_interval(self):
        t = make_table(interval=2)
        addrs = [0x1000 + 16 * i for i in range(12)]
        for a in addrs[:6]:
            t.advance(5, a)
        feed(t, 5, late=True, early=False, times=t.ADAPT_EVERY)  # -> 4
        homes = [t.advance(5, a) for a in addrs[6:]]
        # after widening, homes are 4 back in the stream
        assert homes[-1] == addrs[-5]

    def test_resize_preserves_newest_entries(self):
        t = make_table(interval=8)
        for i in range(8):
            t.advance(5, 0x1000 + 16 * i)
        feed(t, 5, late=False, early=True, times=t.ADAPT_EVERY)  # -> 4
        home = t.advance(5, 0x2000)
        # queue truncated to the newest 4: home is 4 back, not 8
        assert home == 0x1000 + 16 * 4


class TestEndToEnd:
    def _engine(self, cfg):
        pcfg = dataclasses.replace(cfg.prefetch, adaptive_interval=True)
        cfg = dataclasses.replace(cfg, prefetch=pcfg)
        return cfg, make_engine("hardware", cfg)

    def test_adaptive_hardware_runs_and_prefetches(self, tiny_cfg):
        cfg, engine = self._engine(tiny_cfg)
        from tests.test_engines import walk_twice

        program, __ = walk_twice(96)
        res = TimingModel(program, cfg, engine).run()
        assert isinstance(engine.jqt, AdaptiveJumpQueueTable)
        assert engine.stats.jp_stores > 0
        total = (
            engine.jqt.adapt_stats.late
            + engine.jqt.adapt_stats.early
            + engine.jqt.adapt_stats.timely
        )
        assert total > 0  # feedback loop is live

    def test_adaptive_not_worse_than_fixed(self, tiny_cfg):
        """On a clean repeated walk the adaptive table should end up at
        least as good as the fixed-interval default."""
        a_cfg, engine = self._engine(tiny_cfg)
        from tests.test_engines import walk_twice

        program, __ = walk_twice(96)
        adaptive = TimingModel(program, a_cfg, engine).run()
        fixed = simulate(program, tiny_cfg, engine="hardware")
        assert adaptive.cycles <= fixed.cycles * 1.10
