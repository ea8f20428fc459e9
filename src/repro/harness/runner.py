"""Scheme runs: the paper's five schemes and one benchmark's result
under one of them.

Each run is decomposed into compute and memory time with a second
simulation using single-cycle data memory (the paper's methodology);
:class:`~repro.harness.executor.SweepPlan` schedules that pair of cells
and :class:`~repro.harness.executor.SweepResults` assembles the
:class:`SchemeRun`.  The run matrix itself is tabled in
:mod:`repro.harness.schemes`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cpu.stats import SimResult
from .schemes import paper_scheme_names

__all__ = ["SCHEMES", "SchemeRun"]


#: The paper's five schemes in presentation order.  Derived from the
#: scheme registry at import time so the two can never drift — but
#: filtered to the ``"paper"`` group, so zoo prefetchers (raced by
#: the tournament spec) don't leak into the Figure 4/5/6 matrices.
#: Use :func:`repro.harness.schemes.scheme_names` for the full list.
SCHEMES = tuple(paper_scheme_names())


@dataclass
class SchemeRun:
    """One benchmark under one scheme, with the time decomposition."""

    benchmark: str
    scheme: str
    variant: str
    total: int
    compute: int
    result: SimResult

    @property
    def memory(self) -> int:
        return max(0, self.total - self.compute)

    def normalized(self, baseline_total: int) -> float:
        return self.total / baseline_total if baseline_total else 0.0

    def memory_reduction(self, baseline_memory: int) -> float:
        """Fraction of the baseline's memory stall time eliminated."""
        if not baseline_memory:
            return 0.0
        return 1.0 - self.memory / baseline_memory

    def to_dict(self, baseline_total: int | None = None) -> dict:
        """JSON-safe artifact body for one scheme run; ``baseline_total``
        (the base scheme's cycles) adds the paper's normalized metric."""
        d: dict = {
            "benchmark": self.benchmark,
            "scheme": self.scheme,
            "variant": self.variant,
            "total": self.total,
            "compute": self.compute,
            "memory": self.memory,
        }
        if baseline_total:
            d["normalized"] = self.normalized(baseline_total)
        d["result"] = self.result.to_dict()
        return d
