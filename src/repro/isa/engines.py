"""Simulation-engine registry: how the timing model executes programs.

Orthogonal to the *prefetch*-engine axis (``repro.prefetch.engines``),
which selects the scheme being studied, this registry selects the
functional interpreter that feeds the one timing loop,
:meth:`~repro.cpu.timing.TimingModel.run`.  Both entries must be
bit-identical — same commit stream, same cycle counts, same stats — so
the choice is purely a speed/validation trade-off:

* ``table`` — the decode-table :class:`~repro.isa.interpreter.Interpreter`
  (the default).
* ``reference`` — the naive per-opcode interpreter from
  :mod:`repro.audit.diff`; slow, exists to give differential validation
  an independently written semantics.

``REPRO_SIM_ENGINE`` overrides the default for anything that does not
pass an explicit engine (CLI runs, sweeps, tests).

The ``reference`` loader is deferred: it lives in the audit package,
which imports the simulator, so resolving it at import time would cycle.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable

from ..errors import ConfigError
from ..registry import Registry

#: Environment override consulted when no explicit engine is requested.
SIM_ENGINE_ENV = "REPRO_SIM_ENGINE"

#: Name used when neither the caller nor the environment chooses.
DEFAULT_SIM_ENGINE = "table"


@dataclass(frozen=True)
class SimEngine:
    """One registered way of executing the ISA under the timing model.

    ``factory`` returns the ``interpreter_factory`` to hand the timing
    model (``None`` means its built-in decode-table interpreter).
    """

    name: str
    description: str
    factory: Callable[[], Any]


def _table_factory() -> Any:
    return None  # TimingModel's built-in Interpreter


def _reference_factory() -> Any:
    from ..audit.diff import ReferenceInterpreter

    return ReferenceInterpreter


SIM_ENGINES: Registry[SimEngine] = Registry("simulation engine")
SIM_ENGINES.register("table", SimEngine(
    "table",
    "decode-table functional interpreter (default)",
    _table_factory,
))
SIM_ENGINES.register("reference", SimEngine(
    "reference",
    "independent per-opcode reference interpreter (slow; validation)",
    _reference_factory,
))


def default_sim_engine() -> str:
    """The session default: ``$REPRO_SIM_ENGINE`` when set, else table."""
    name = os.environ.get(SIM_ENGINE_ENV, "").strip()
    if not name:
        return DEFAULT_SIM_ENGINE
    if name not in SIM_ENGINES:
        raise ConfigError(
            f"${SIM_ENGINE_ENV}={name!r} is not a simulation engine; "
            f"available: {SIM_ENGINES.names()}"
        )
    return name


def resolve_sim_engine(name: str | None = None) -> SimEngine:
    """Look up ``name`` (or the session default when ``None``/empty)."""
    return SIM_ENGINES.get(name or default_sim_engine())
