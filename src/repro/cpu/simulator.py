"""Top-level simulation entry points."""

from __future__ import annotations

from dataclasses import dataclass

from ..config import MachineConfig
from ..isa.program import Program
from ..prefetch.base import PrefetchEngine
from ..prefetch.engines import ENGINES
from .stats import SimResult
from .timing import TimingModel


def make_engine(name: str, cfg: MachineConfig) -> PrefetchEngine:
    """Instantiate a prefetch engine by registry name (``none``,
    ``software``, ``dbp``, ``cooperative``, ``hardware``, plus anything
    added via :func:`repro.prefetch.register_engine`)."""
    return ENGINES.get(name)(cfg.prefetch)


def simulate(
    program: Program,
    cfg: MachineConfig | None = None,
    engine: str | PrefetchEngine = "none",
    collect_miss_intervals: bool = False,
    max_steps: int | None = None,
    telemetry=None,
    audit=None,
    interpreter_factory=None,
    profile=None,
    sim_engine: str | None = None,
) -> SimResult:
    """Run ``program`` on the simulated machine; returns a
    :class:`~repro.cpu.stats.SimResult`.

    ``telemetry`` is an optional :class:`repro.obs.Telemetry` context;
    when given, the result carries its serialized metric registry and
    prefetch-outcome counts (``SimResult.telemetry``).  ``audit`` is an
    optional :class:`repro.audit.Auditor` that sweeps the model's
    conservation-law invariants every ``audit.interval`` commits;
    ``profile`` is an optional :class:`repro.obs.Profiler` that charges
    every commit-front advance to a CPI-stack bucket (the serialized
    profile lands in ``SimResult.profile``); ``interpreter_factory``
    substitutes the functional interpreter (the differential validator
    passes :class:`repro.audit.diff.ReferenceInterpreter` here);
    ``sim_engine`` selects the functional interpreter by registry name
    (``table``/``reference``, :mod:`repro.isa.engines`) —
    ``None`` defers to ``$REPRO_SIM_ENGINE`` and then the ``table``
    default, and every engine is bit-identical."""
    cfg = cfg or MachineConfig()
    if isinstance(engine, str):
        engine = make_engine(engine, cfg)
    model = TimingModel(
        program,
        cfg,
        engine,
        collect_miss_intervals=collect_miss_intervals,
        max_steps=max_steps,
        telemetry=telemetry,
        audit=audit,
        interpreter_factory=interpreter_factory,
        profile=profile,
        sim_engine=sim_engine,
    )
    return model.run()


@dataclass(frozen=True)
class Decomposition:
    """The paper's execution-time decomposition (Section 4 preamble).

    ``compute`` is a second simulation with uniform single-cycle data
    memory; ``memory`` is the remainder of the realistic run's time.
    """

    total: int
    compute: int

    @property
    def memory(self) -> int:
        return max(0, self.total - self.compute)

    @property
    def memory_fraction(self) -> float:
        return self.memory / self.total if self.total else 0.0


def simulate_decomposed(
    program: Program,
    cfg: MachineConfig | None = None,
    engine: str = "none",
    max_steps: int | None = None,
    sim_engine: str | None = None,
) -> tuple[SimResult, Decomposition]:
    """Realistic + compute-time pair of simulations for one configuration."""
    cfg = cfg or MachineConfig()
    real = simulate(program, cfg, engine=engine, max_steps=max_steps,
                    sim_engine=sim_engine)
    compute = simulate(program, cfg.perfect(), engine="none",
                       max_steps=max_steps, sim_engine=sim_engine)
    return real, Decomposition(total=real.cycles, compute=compute.cycles)
