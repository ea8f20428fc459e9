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
    max_steps: int | None = None,
    telemetry=None,
    audit=None,
    interpreter_factory=None,
    profile=None,
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
    and :func:`repro.audit.diff.reference_simulate` pass
    :class:`repro.audit.diff.ReferenceInterpreter` here; the default is
    the decode-table :class:`repro.isa.interpreter.Interpreter`)."""
    cfg = cfg or MachineConfig()
    if isinstance(engine, str):
        engine = make_engine(engine, cfg)
    model = TimingModel(
        program,
        cfg,
        engine,
        max_steps=max_steps,
        telemetry=telemetry,
        audit=audit,
        interpreter_factory=interpreter_factory,
        profile=profile,
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
) -> tuple[SimResult, Decomposition]:
    """Realistic + compute-time pair of simulations for one configuration."""
    cfg = cfg or MachineConfig()
    real = simulate(program, cfg, engine=engine, max_steps=max_steps)
    compute = simulate(program, cfg.perfect(), engine="none",
                       max_steps=max_steps)
    return real, Decomposition(total=real.cycles, compute=compute.cycles)
