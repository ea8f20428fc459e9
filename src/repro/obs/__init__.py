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
    EARLY,
    EARLY_EVICTED,
    LATE,
    OUTCOMES,
    TIMELY,
    USELESS,
    OutcomeTracker,
    classify_timeliness,
)
from .trace import EventTrace

#: Miss-latency buckets: 1..4096 cycles in powers of two (bench memory
#: latency is 70; Figure-7 sweeps reach several hundred).
MISS_LATENCY_BOUNDS = exponential_buckets(1, 2, 13)


class Telemetry:
    """Per-simulation observability context (registry + outcomes + trace)."""

    def __init__(self, trace: EventTrace | None = None) -> None:
        self.registry = MetricRegistry()
        self.outcomes = OutcomeTracker(self.registry)
        self.trace = trace

    def finalize(self) -> None:
        """Resolve still-outstanding prefetches and freeze outcome counters."""
        self.outcomes.finalize()
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
    "classify_timeliness",
    "cpi_stack_rows",
    "dump_json",
    "exponential_buckets",
    "hot_site_rows",
    "latency_rows",
    "linear_buckets",
    "load_json",
    "schema_kind",
    "DROPPED",
    "EARLY",
    "EARLY_EVICTED",
    "LATE",
    "OUTCOMES",
    "TIMELY",
    "USELESS",
]
