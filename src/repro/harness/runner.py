"""Runs workloads under the paper's five configurations.

The run matrix (Section 4.2, Figure 5):

==============  =================  =============  =========================
scheme          program variant    engine         notes
==============  =================  =============  =========================
``base``        baseline           none           the unoptimized execution
``software``    ``sw:<idiom>``     software       explicit prefetch code
``cooperative`` ``coop:<idiom>``   cooperative    JPF + dependence hardware
``hardware``    baseline           hardware       DBP + JQT/JPR
``dbp``         baseline           dbp            comparison point [16]
==============  =================  =============  =========================

Each run is decomposed into compute and memory time with a second
simulation using single-cycle data memory (the paper's methodology).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..config import MachineConfig, bench_config
from ..cpu.simulator import simulate
from ..cpu.stats import SimResult
from ..workloads import get_workload
from .schemes import paper_scheme_names, scheme_plan

__all__ = ["SCHEMES", "BenchmarkRunner", "SchemeRun", "scheme_plan"]


def _schemes() -> tuple[str, ...]:
    """The run matrix's scheme axis: the registry's ``"paper"`` group."""
    return tuple(paper_scheme_names())


#: The paper's five schemes in presentation order.  Derived from the
#: scheme registry at import time so the two can never drift — but
#: filtered to the ``"paper"`` group, so zoo prefetchers (raced by
#: the tournament spec) don't leak into the Figure 4/5/6 matrices.
#: Use :func:`repro.harness.schemes.scheme_names` for the full list.
SCHEMES = _schemes()


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


class BenchmarkRunner:
    """Runs one workload's scheme matrix, caching compute-time runs per
    program variant (base/hardware/dbp share the baseline's)."""

    def __init__(
        self,
        name: str,
        cfg: MachineConfig | None = None,
        params: dict[str, Any] | None = None,
    ) -> None:
        self.name = name
        self.cfg = cfg or bench_config()
        self.workload = get_workload(name, **(params or {}))
        self._compute_cache: dict[str, int] = {}
        self._built: dict[str, Any] = {}

    def _program(self, variant: str):
        if variant not in self._built:
            self._built[variant] = self.workload.build(variant)
        return self._built[variant].program

    def _compute_time(self, variant: str) -> int:
        if variant not in self._compute_cache:
            res = simulate(self._program(variant), self.cfg.perfect(), engine="none")
            self._compute_cache[variant] = res.cycles
        return self._compute_cache[variant]

    def run(
        self,
        scheme: str,
        idiom: str | None = None,
        telemetry=None,
        profile=None,
        audit=None,
    ) -> SchemeRun:
        variant, engine = scheme_plan(self.workload, scheme, idiom)
        result = simulate(
            self._program(variant), self.cfg, engine=engine,
            telemetry=telemetry, profile=profile, audit=audit,
        )
        return SchemeRun(
            benchmark=self.name,
            scheme=scheme,
            variant=variant,
            total=result.cycles,
            compute=self._compute_time(variant),
            result=result,
        )
