"""repro — reproduction of "Effective Jump-Pointer Prefetching for Linked
Data Structures" (Roth & Sohi, ISCA 1999).

Public API highlights:

* :func:`repro.simulate` / :func:`repro.simulate_decomposed` — run a
  mini-ISA program on the simulated Table-2 machine.
* :func:`repro.get_workload` — the Olden kernels and their JPP variants.
* :class:`repro.MachineConfig` — machine parameters (Table 2 defaults).
* :mod:`repro.core` — the JPP framework: the software jump queue and
  the software/cooperative jump-pointer prefetch emitter.
* :mod:`repro.harness` — the sweep machinery; every paper table/figure
  is a declarative :class:`~repro.harness.ExperimentSpec` file
  (``examples/specs/``) run via :func:`~repro.harness.run_spec`.
* :func:`repro.get_machine` / :func:`repro.machine_names` — the named
  machine registry (``table2``, ``bench``, ``small``).
* :mod:`repro.obs` — observability: metric registry, prefetch-outcome
  classification, event tracing, machine-readable run artifacts.
"""

from .config import (
    BranchPredConfig,
    BusConfig,
    CacheConfig,
    FuncUnitConfig,
    MachineConfig,
    PrefetchConfig,
    TLBConfig,
    bench_config,
    get_machine,
    machine_names,
    register_machine,
    small_config,
    table2_config,
)
from .registry import Registry
from .cpu import (
    Decomposition,
    SimResult,
    make_engine,
    simulate,
    simulate_decomposed,
)
from .errors import (
    AssemblyError,
    ConfigError,
    ExecutionError,
    ReproError,
    WorkloadError,
)
from .isa import Assembler, Interpreter, Op, Program, run_to_completion
from .obs import EventTrace, MetricRegistry, Telemetry
from .workloads import BuiltProgram, Workload, get_workload, workload_names

__version__ = "1.0.0"


def describe_registries() -> dict[str, list[str]]:
    """Names in every experiment-axis registry."""
    from .config import MACHINES, MSHR_MODELS
    from .harness.schemes import SCHEME_REGISTRY
    from .prefetch.engines import ENGINES
    from .workloads.registry import WORKLOADS

    return {
        "machines": MACHINES.names(),
        "schemes": SCHEME_REGISTRY.names(),
        "engines": ENGINES.names(),
        "mshr_models": list(MSHR_MODELS),
        "workloads": WORKLOADS.names(sort=True),
    }


__all__ = [
    "AssemblyError",
    "Assembler",
    "BranchPredConfig",
    "BuiltProgram",
    "BusConfig",
    "CacheConfig",
    "ConfigError",
    "Decomposition",
    "EventTrace",
    "ExecutionError",
    "FuncUnitConfig",
    "Interpreter",
    "MachineConfig",
    "MetricRegistry",
    "Op",
    "PrefetchConfig",
    "Program",
    "Registry",
    "ReproError",
    "SimResult",
    "TLBConfig",
    "Telemetry",
    "Workload",
    "WorkloadError",
    "__version__",
    "bench_config",
    "describe_registries",
    "get_machine",
    "get_workload",
    "machine_names",
    "make_engine",
    "register_machine",
    "run_to_completion",
    "simulate",
    "simulate_decomposed",
    "small_config",
    "table2_config",
    "workload_names",
]
