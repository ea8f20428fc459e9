"""Named counters and bucketed histograms — the metric registry.

Components (the memory hierarchy, the prefetch engines, the outcome
tracker) register instruments by name into one :class:`MetricRegistry`
per simulation; the registry serializes to a schema-stable dict for the
JSON run artifacts (see :mod:`repro.obs.artifacts`).

Histograms use fixed upper-bound buckets (Prometheus-style ``le``
semantics): a value lands in the first bucket whose bound is >= the
value, with an unbounded overflow bucket at the end.  Min/max/sum are
tracked exactly, so the mean does not suffer bucketing error.
"""

from __future__ import annotations

from bisect import bisect_left


def exponential_buckets(
    start: int | float, factor: int | float, count: int
) -> list[int | float]:
    """``count`` geometric upper bounds: start, start*factor, ...

    Integer inputs stay exact integers; float inputs (latency ratios,
    speedup bands) produce float bounds.
    """
    if start <= 0 or factor <= 1:
        raise ValueError(
            f"exponential buckets need start > 0 and factor > 1, "
            f"got start={start}, factor={factor}"
        )
    bounds: list[int | float] = []
    b = start
    for _ in range(count):
        bounds.append(b)
        b *= factor
    return bounds


def linear_buckets(
    start: int | float, step: int | float, count: int
) -> list[int | float]:
    return [start + step * i for i in range(count)]


class Counter:
    """A monotonically-increasing named count."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def to_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class Histogram:
    """Fixed-bucket histogram with exact count/sum/min/max.

    Bounds may be ints or floats (mixed is fine); they must be strictly
    ascending under exact comparison — no tolerance, so ``1`` and ``1.0``
    count as the same bound and are rejected as duplicates.
    """

    __slots__ = ("name", "help", "bounds", "counts", "count", "sum", "min", "max")

    def __init__(
        self, name: str, bounds: list[int | float], help: str = ""
    ) -> None:
        if not bounds or any(
            a >= b for a, b in zip(bounds, list(bounds)[1:])
        ):
            raise ValueError(
                f"histogram {name!r} needs strictly ascending bounds, got {bounds}"
            )
        self.name = name
        self.help = help
        self.bounds = list(bounds)
        self.counts = [0] * (len(bounds) + 1)  # last bucket = overflow (+inf)
        self.count = 0
        self.sum = 0
        self.min: int | float | None = None
        self.max: int | float | None = None

    def observe(self, value: int | float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": [
                {"le": b, "count": c} for b, c in zip(self.bounds, self.counts)
            ]
            + [{"le": None, "count": self.counts[-1]}],
        }


class MetricRegistry:
    """Name -> instrument map; registration is idempotent per name."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Histogram] = {}

    def counter(self, name: str, help: str = "") -> Counter:
        m = self._metrics.get(name)
        if m is None:
            m = self._metrics[name] = Counter(name, help)
        elif not isinstance(m, Counter):
            raise ValueError(f"{name!r} already registered as {type(m).__name__}")
        return m

    def histogram(self, name: str, bounds: list[int], help: str = "") -> Histogram:
        m = self._metrics.get(name)
        if m is None:
            m = self._metrics[name] = Histogram(name, bounds, help)
        elif not isinstance(m, Histogram):
            raise ValueError(f"{name!r} already registered as {type(m).__name__}")
        return m

    def get(self, name: str) -> Counter | Histogram | None:
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def to_dict(self) -> dict:
        return {name: self._metrics[name].to_dict() for name in self.names()}
