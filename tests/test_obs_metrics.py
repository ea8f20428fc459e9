"""Metric registry: counters and histogram bucketing edge cases."""

import random
from array import array

import pytest

from repro.obs import (
    Counter,
    Histogram,
    MetricRegistry,
    Telemetry,
    exponential_buckets,
    linear_buckets,
    miss_parallelism,
)


class TestBucketHelpers:
    def test_exponential(self):
        assert exponential_buckets(1, 2, 5) == [1, 2, 4, 8, 16]

    def test_linear(self):
        assert linear_buckets(0, 1, 4) == [0, 1, 2, 3]


class TestCounter:
    def test_inc(self):
        c = Counter("x")
        c.inc()
        c.inc(5)
        assert c.value == 6
        assert c.to_dict() == {"type": "counter", "value": 6}


class TestHistogram:
    def test_value_on_bound_lands_in_that_bucket(self):
        h = Histogram("h", [10, 20, 30])
        h.observe(10)   # == first bound: first bucket ("le" semantics)
        h.observe(20)
        assert h.counts == [1, 1, 0, 0]

    def test_value_below_first_bound(self):
        h = Histogram("h", [10, 20])
        h.observe(0)
        h.observe(-5)
        assert h.counts[0] == 2

    def test_overflow_bucket(self):
        h = Histogram("h", [10, 20])
        h.observe(21)
        h.observe(10**9)
        assert h.counts == [0, 0, 2]
        d = h.to_dict()
        assert d["buckets"][-1] == {"le": None, "count": 2}

    def test_just_past_bound_goes_to_next_bucket(self):
        h = Histogram("h", [10, 20])
        h.observe(11)
        assert h.counts == [0, 1, 0]

    def test_count_sum_min_max_mean(self):
        h = Histogram("h", [100])
        for v in (5, 15, 40):
            h.observe(v)
        assert h.count == 3
        assert h.sum == 60
        assert h.min == 5 and h.max == 40
        assert h.mean == 20.0

    def test_empty_mean_and_serialization(self):
        h = Histogram("h", [1])
        assert h.mean == 0.0
        d = h.to_dict()
        assert d["count"] == 0 and d["min"] is None and d["max"] is None

    def test_rejects_unsorted_or_empty_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", [20, 10])
        with pytest.raises(ValueError):
            Histogram("h", [])


class TestRegistry:
    def test_registration_is_idempotent(self):
        reg = MetricRegistry()
        a = reg.counter("c")
        b = reg.counter("c")
        assert a is b
        h1 = reg.histogram("h", [1, 2])
        h2 = reg.histogram("h", [9, 99])  # bounds of first registration win
        assert h1 is h2 and h1.bounds == [1, 2]

    def test_type_conflict_rejected(self):
        reg = MetricRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.histogram("x", [1])
        reg.histogram("y", [1])
        with pytest.raises(ValueError):
            reg.counter("y")

    def test_lookup_and_dump(self):
        reg = MetricRegistry()
        reg.counter("b").inc(2)
        reg.histogram("a", [1]).observe(0)
        assert "a" in reg and reg.get("nope") is None
        assert reg.names() == ["a", "b"]
        d = reg.to_dict()
        assert d["b"]["value"] == 2
        assert d["a"]["type"] == "histogram"


class TestFloatBounds:
    def test_float_buckets_observe_and_bucket(self):
        h = Histogram("h", [0.5, 1.0, 2.5])
        h.observe(0.5)
        h.observe(1.7)
        h.observe(3.0)
        assert h.counts == [1, 0, 1, 1]

    def test_mixed_int_float_bounds(self):
        h = Histogram("h", [1, 2.5, 10])
        h.observe(2.5)
        assert h.counts == [0, 1, 0, 0]
        assert h.sum == 2.5 and h.mean == 2.5

    def test_exact_duplicate_across_types_rejected(self):
        # 1 and 1.0 compare equal: not strictly ascending.
        with pytest.raises(ValueError):
            Histogram("h", [1, 1.0, 2])

    def test_equal_adjacent_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", [0.5, 0.5])

    def test_exponential_float_buckets(self):
        assert exponential_buckets(0.5, 2.0, 3) == [0.5, 1.0, 2.0]

    def test_exponential_rejects_degenerate_parameters(self):
        with pytest.raises(ValueError):
            exponential_buckets(0, 2, 3)      # start must be positive
        with pytest.raises(ValueError):
            exponential_buckets(-1.0, 2, 3)
        with pytest.raises(ValueError):
            exponential_buckets(1, 1, 3)      # factor must grow
        with pytest.raises(ValueError):
            exponential_buckets(1, 0.5, 3)

    def test_exponential_integer_inputs_stay_exact_ints(self):
        bounds = exponential_buckets(1, 2, 40)
        assert all(isinstance(b, int) for b in bounds)
        assert bounds[-1] == 2 ** 39  # no float precision loss

    def test_serde_round_trip_with_float_bounds(self):
        import json

        h = Histogram("lat", [0.5, 1.0, 2.0])
        for v in (0.25, 0.75, 5.0):
            h.observe(v)
        d = json.loads(json.dumps(h.to_dict()))
        assert d["count"] == 3 and d["sum"] == 6.0
        assert d["min"] == 0.25 and d["max"] == 5.0
        assert [b["le"] for b in d["buckets"]] == [0.5, 1.0, 2.0, None]
        assert [b["count"] for b in d["buckets"]] == [1, 1, 0, 1]


class TestMissParallelism:
    """Table 1's miss parallelism: per miss starting at s, the misses
    started at or before s minus those already done at s, averaged."""

    # (start, ready) in recording order: B starts before A, E ties A's
    # start, and C starts on the very cycle B's data is ready.
    INTERVALS = [(10, 20), (5, 12), (12, 30), (25, 26), (10, 15)]

    def test_hand_worked_set(self):
        starts = array("q", [s for s, __ in self.INTERVALS])
        ends = array("q", [e for __, e in self.INTERVALS])
        # A@10: 3-0, B@5: 1-0, C@12: 4-1 (B is done), D@25: 5-3, E@10: 3-0
        assert miss_parallelism(starts, ends) == 12 / 5

    def test_no_misses(self):
        assert miss_parallelism(array("q"), array("q")) == 0.0

    def test_matches_definition_on_random_sets(self):
        rng = random.Random(7)
        for __ in range(50):
            pairs = []
            for __ in range(rng.randint(1, 40)):
                s = rng.randint(0, 60)
                pairs.append((s, s + rng.randint(1, 30)))
            want = sum(
                sum(t <= s for t, __ in pairs) - sum(e <= s for __, e in pairs)
                for s, __ in pairs
            ) / len(pairs)
            got = miss_parallelism(array("q", [s for s, __ in pairs]),
                                   array("q", [e for __, e in pairs]))
            assert got == want

    def test_telemetry_reduces_and_frees_at_finalize(self):
        tele = Telemetry()
        for s, e in self.INTERVALS:
            tele.miss_starts.append(s)
            tele.miss_ends.append(e)
        tele.finalize()
        assert tele.to_dict()["miss_parallelism"] == 12 / 5
        assert len(tele.miss_starts) == len(tele.miss_ends) == 0
