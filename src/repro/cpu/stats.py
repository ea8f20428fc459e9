"""Simulation results and derived metrics."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from ..mem.hierarchy import HierarchyStats
from ..prefetch.base import EngineStats
from .branch_pred import BranchStats


@dataclass
class SimResult:
    """Outcome of one timing simulation."""

    cycles: int
    instructions: int
    loads: int
    stores: int
    lds_loads: int
    branch: BranchStats
    hierarchy: HierarchyStats
    engine: EngineStats
    l1d_accesses: int
    l1d_misses: int
    l2_accesses: int
    l2_misses: int
    dtlb_misses: int
    engine_name: str = "none"
    extra: dict[str, float] = field(default_factory=dict)
    telemetry: dict | None = None
    """Serialized :class:`repro.obs.Telemetry` (metric registry dump and
    prefetch-outcome counts) when the run was observed; None otherwise."""
    profile: dict | None = None
    """Serialized :class:`repro.obs.profile.Profiler` (CPI stack, per-site
    stall table, latency histograms) when the run was profiled."""

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def l1d_miss_ratio(self) -> float:
        return self.l1d_misses / self.l1d_accesses if self.l1d_accesses else 0.0

    @property
    def lds_load_fraction(self) -> float:
        """Fraction of dynamic loads that traverse linked data structures."""
        return self.lds_loads / self.loads if self.loads else 0.0

    @property
    def lds_miss_fraction(self) -> float:
        """Fraction of L1 data-load misses caused by LDS loads (Table 1)."""
        h = self.hierarchy
        return h.lds_load_misses / h.load_misses if h.load_misses else 0.0

    @property
    def bytes_l1_l2_per_inst(self) -> float:
        """Figure 6's metric (caller normalizes by *baseline* instructions)."""
        return self.hierarchy.bytes_l1_l2 / self.instructions if self.instructions else 0.0

    def to_dict(self) -> dict:
        """JSON-safe dict of all counters, nested stats, derived metrics
        and (when present) the telemetry dump."""
        return {
            "engine": self.engine_name,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "loads": self.loads,
            "stores": self.stores,
            "lds_loads": self.lds_loads,
            "l1d_accesses": self.l1d_accesses,
            "l1d_misses": self.l1d_misses,
            "l2_accesses": self.l2_accesses,
            "l2_misses": self.l2_misses,
            "dtlb_misses": self.dtlb_misses,
            "derived": {
                "ipc": self.ipc,
                "l1d_miss_ratio": self.l1d_miss_ratio,
                "lds_load_fraction": self.lds_load_fraction,
                "lds_miss_fraction": self.lds_miss_fraction,
                "bytes_l1_l2_per_inst": self.bytes_l1_l2_per_inst,
            },
            "branch": asdict(self.branch),
            "hierarchy": asdict(self.hierarchy),
            "engine_stats": asdict(self.engine),
            "extra": dict(self.extra),
            "telemetry": self.telemetry,
            "profile": self.profile,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SimResult":
        """Inverse of :meth:`to_dict` (used by the on-disk result cache)."""
        return cls(
            cycles=d["cycles"],
            instructions=d["instructions"],
            loads=d["loads"],
            stores=d["stores"],
            lds_loads=d["lds_loads"],
            branch=BranchStats(**d["branch"]),
            hierarchy=HierarchyStats(**d["hierarchy"]),
            engine=EngineStats(**d["engine_stats"]),
            l1d_accesses=d["l1d_accesses"],
            l1d_misses=d["l1d_misses"],
            l2_accesses=d["l2_accesses"],
            l2_misses=d["l2_misses"],
            dtlb_misses=d["dtlb_misses"],
            engine_name=d["engine"],
            extra=dict(d.get("extra") or {}),
            telemetry=d.get("telemetry"),
            profile=d.get("profile"),
        )

