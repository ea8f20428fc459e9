"""Observability: metric registry, prefetch-outcome tracking, event
tracing, and machine-readable run artifacts.

One :class:`Telemetry` object is the per-simulation context.  Pass it to
:func:`repro.cpu.simulator.simulate` (or
:func:`repro.harness.simulate_cell`) and the memory hierarchy and
prefetch engine register their instruments into its
:class:`~repro.obs.metrics.MetricRegistry` and report prefetch outcomes
to its :class:`~repro.obs.outcomes.OutcomeTracker`.  With no telemetry
attached (the default) every hook site is a single ``is None`` check, so
the untraced hot loop does not regress.
"""

from __future__ import annotations

from array import array
from typing import Iterable

from .artifacts import artifact, dump_json, load_json, schema_kind
from .metrics import (
    Counter,
    Histogram,
    MetricRegistry,
    exponential_buckets,
    linear_buckets,
)
from .profile import (
    BUCKETS,
    LEVELS,
    Profiler,
    cpi_stack_rows,
    hot_site_rows,
    latency_rows,
)
from .outcomes import (
    DROPPED,
    EARLY_EVICTED,
    LATE,
    OUTCOMES,
    TIMELY,
    USELESS,
    OutcomeTracker,
    PrefetchRecord,
)
from .trace import EventTrace

#: Miss-latency buckets: 1..4096 cycles in powers of two (bench memory
#: latency is 70; Figure-7 sweeps reach several hundred).
MISS_LATENCY_BOUNDS = exponential_buckets(1, 2, 13)


def miss_parallelism(starts: array, ends: array) -> float:
    """Average number of in-flight L1 data misses, sampled at each miss
    (Table 1's parallelism metric): per miss starting at ``s``, the
    misses started at or before ``s`` minus those already done at ``s``.
    ``starts[i]``/``ends[i]`` are one miss's request and ready cycles."""
    if not starts:
        return 0.0
    starts = sorted(starts)
    ends = sorted(ends)
    n = len(starts)
    total = started = done = 0
    for s in starts:
        while started < n and starts[started] <= s:
            started += 1
        while done < n and ends[done] <= s:
            done += 1
        total += started - done
    return total / n


class Telemetry:
    """Per-simulation observability context (registry + outcomes + trace).

    The memory hierarchy also appends each demand-load miss's request and
    ready cycles to ``miss_starts``/``miss_ends``; :meth:`finalize`
    reduces them to the ``mem.miss_latency_cycles`` histogram and
    :func:`miss_parallelism`, then frees them."""

    def __init__(self, trace: EventTrace | None = None) -> None:
        self.registry = MetricRegistry()
        self.outcomes = OutcomeTracker(self.registry)
        self.trace = trace
        self.miss_starts = array("q")
        self.miss_ends = array("q")
        self.miss_parallelism = 0.0

    def finalize(self, unresolved: Iterable[PrefetchRecord] = ()) -> None:
        """Classify the hierarchy's ``unresolved`` prefetch records as
        useless, freeze outcome counters and reduce the miss intervals."""
        self.outcomes.finalize(unresolved)
        hist = self.registry.histogram(
            "mem.miss_latency_cycles",
            MISS_LATENCY_BOUNDS,
            help="demand L1 data-miss latency (request to fill)",
        )
        for start, end in zip(self.miss_starts, self.miss_ends):
            hist.observe(end - start)
        if self.miss_starts:
            self.miss_parallelism = miss_parallelism(self.miss_starts,
                                                     self.miss_ends)
            self.miss_starts = array("q")
            self.miss_ends = array("q")
        for outcome in OUTCOMES:
            c = self.registry.counter(
                f"prefetch.outcome.{outcome}",
                help="terminal prefetch outcomes (Section 5 taxonomy)",
            )
            c.value = self.outcomes.counts[outcome]

    def to_dict(self) -> dict:
        return {
            "metrics": self.registry.to_dict(),
            "prefetch_outcomes": self.outcomes.to_dict(),
            "miss_parallelism": self.miss_parallelism,
        }


__all__ = [
    "BUCKETS",
    "Counter",
    "EventTrace",
    "Histogram",
    "LEVELS",
    "MetricRegistry",
    "MISS_LATENCY_BOUNDS",
    "OutcomeTracker",
    "Profiler",
    "Telemetry",
    "artifact",
    "cpi_stack_rows",
    "dump_json",
    "exponential_buckets",
    "hot_site_rows",
    "latency_rows",
    "linear_buckets",
    "load_json",
    "miss_parallelism",
    "schema_kind",
    "DROPPED",
    "EARLY_EVICTED",
    "LATE",
    "OUTCOMES",
    "TIMELY",
    "USELESS",
]
