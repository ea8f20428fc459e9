"""Dependence predictor and value correlator."""

from types import SimpleNamespace

from repro.config import PrefetchConfig
from repro.prefetch.dependence import (
    MAX_OFFSET,
    MIN_OFFSET,
    DependencePredictor,
    ValueCorrelator,
)
from repro.prefetch.engines import DBPEngine


def make(entries=256, assoc=4):
    return DependencePredictor(PrefetchConfig(dep_entries=entries, dep_assoc=assoc))


class TestPredictor:
    def test_learn_and_lookup(self):
        p = make()
        assert p.learn(10, 20, 4)
        assert list(p.lookup(10)) == [(20, 4)]

    def test_multiple_consumers(self):
        p = make()
        p.learn(10, 20, 0)
        p.learn(10, 21, 4)
        assert dict(p.lookup(10)) == {20: 0, 21: 4}

    def test_offset_updated_in_place(self):
        p = make()
        p.learn(10, 20, 4)
        p.learn(10, 20, 8)
        assert list(p.lookup(10)) == [(20, 8)]

    def test_rejects_wild_offsets(self):
        p = make()
        assert not p.learn(10, 20, MAX_OFFSET + 1)
        assert not p.learn(10, 20, MIN_OFFSET - 1)
        assert list(p.lookup(10)) == []

    def test_boundary_offsets_accepted(self):
        p = make()
        assert p.learn(1, 2, MAX_OFFSET)
        assert p.learn(3, 4, MIN_OFFSET)

    def test_capacity_eviction_lru(self):
        p = make(entries=4, assoc=2)  # 2 sets x 2 ways
        # producers 0, 2, 4 map to set 0
        p.learn(0, 100, 0)
        p.learn(2, 101, 0)
        p.lookup(0)          # refresh producer 0
        p.learn(4, 102, 0)   # evicts producer 2
        assert p.lookup(0)
        assert not p.lookup(2)
        assert p.lookup(4)
        assert p.evicted == 1

    @staticmethod
    def recurrent(*edges):
        """The backbone (recurrent) load PCs DBP classifies after
        learning each ``(producer_pc, consumer_pc)`` edge in order."""
        engine = DBPEngine()
        for producer, consumer in edges:
            engine._learn(SimpleNamespace(index=consumer), 1004, producer, 1000)
        return engine.recurrent_pcs

    def test_self_recurrence(self):
        assert self.recurrent((10, 10)) == {10}  # l = l->next

    def test_mutual_recurrence(self):
        # A tree's child loads feed each other.
        assert self.recurrent((10, 11), (11, 10)) == {10, 11}

    def test_non_recurrent(self):
        assert self.recurrent((10, 11), (11, 12)) == set()

    def test_lookup_quiet_no_lru_refresh(self):
        p = make(entries=4, assoc=2)
        p.learn(0, 100, 0)
        p.learn(2, 101, 0)
        p.lookup_quiet(0)    # must NOT refresh
        p.learn(4, 102, 0)   # evicts 0 (the LRU)
        assert not p.lookup_quiet(0)


class TestCorrelator:
    def test_record_and_match(self):
        c = ValueCorrelator()
        c.record(0x1000, 42)
        assert c.match(0x1000) == 42

    def test_entry_survives_repeated_matches(self):
        c = ValueCorrelator()
        c.record(0x1000, 42)
        assert c.match(0x1000) == 42
        assert c.match(0x1000) == 42

    def test_miss_returns_none(self):
        assert ValueCorrelator().match(0x2000) is None

    def test_capacity_lru(self):
        c = ValueCorrelator(capacity=2)
        c.record(1 * 4, 10)
        c.record(2 * 4, 11)
        c.match(1 * 4)         # refresh
        c.record(3 * 4, 12)    # evicts value 2*4
        assert c.match(1 * 4) == 10
        assert c.match(2 * 4) is None
        assert c.match(3 * 4) == 12
