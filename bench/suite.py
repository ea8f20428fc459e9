"""The benchmark's four workloads and the seeded inputs they run.

Every workload is a shipped experiment spec (``examples/specs/``)
narrowed to the cells that stress one set of simulator layers.  The
spec is the only input the simulator receives; ``--seed`` picks its
input sizes (see :func:`perturb`).  Importing this module puts the
checkout's ``src/`` first on ``sys.path`` so the benchmark always
measures the source next to it, never an installed copy.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPECS = ROOT / "examples" / "specs"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.harness.experiments import MEMORY_BOUND, OLDEN  # noqa: E402
from repro.harness.spec import ExperimentSpec, load_spec  # noqa: E402
from repro.workloads import workload_class  # noqa: E402

#: Integer parameters at least this large are input sizes a seed may
#: perturb; smaller ones are tree depths, degrees and iteration counts
#: whose smallest step changes the work by far more than a few percent.
SIZE_FLOOR = 32
#: Largest relative change a seed makes to one size parameter.  Small,
#: so every seed runs about the same amount of simulation and the
#: run-to-run spread of the timings stays a property of the host.
SIZE_JITTER = 0.03


@dataclass(frozen=True)
class BenchWorkload:
    """One named benchmark workload."""

    name: str
    why: str
    jobs: int
    """Worker processes of the sweep (1 = the serial backend)."""
    min_reps: int
    """Cold-cache sweeps always run, however short ``--seconds`` is."""
    warm_reruns: int
    """Warm-cache reruns after the last cold sweep (rows must match)."""


WORKLOADS: dict[str, BenchWorkload] = {w.name: w for w in (
    BenchWorkload(
        "fig5-membound",
        "the paper's headline Figure 5 sweep on the memory-bound set; host "
        "time sits in mem and prefetch; the only paper-scored workload",
        jobs=1, min_reps=1, warm_reruns=5,
    ),
    BenchWorkload(
        "compute-base",
        "the five compute-bound kernels under scheme base only; no prefetch "
        "engine runs, so isa and cpu dominate (the mem/prefetch bypass)",
        jobs=1, min_reps=3, warm_reruns=5,
    ),
    BenchWorkload(
        "zoo-telemetry",
        "all nine schemes with outcome telemetry on em3d, health and spmv; "
        "four rival engines and per-prefetch classification",
        jobs=1, min_reps=1, warm_reruns=5,
    ),
    BenchWorkload(
        "sweep-small",
        "the full tournament on the small machine at test sizes, two "
        "workers; ~15 ms cells give pool dispatch, cache writes and "
        "assembly their largest share",
        jobs=2, min_reps=3, warm_reruns=30,
    ),
)}

#: zoo-telemetry halves the traversal repetitions of its three kernels
#: so one serial sweep fits the run budget; sizes (and so the cache
#: footprint relative to the modelled caches) are the bench defaults.
ZOO_PARAMS = {
    "em3d": {"iterations": 5},
    "health": {"iterations": 6},
    "spmv": {"iterations": 4},
}


def base_spec(name: str) -> ExperimentSpec:
    """The workload's spec before the seed is applied."""
    if name == "fig5-membound":
        spec = load_spec(SPECS / "figure5.toml")
        return _only(spec, MEMORY_BOUND)
    if name == "compute-base":
        spec = load_spec(SPECS / "figure5.toml")
        spec = _only(spec, tuple(b for b in OLDEN if b not in MEMORY_BOUND))
        return replace(spec, name="compute-base", schemes=("base",))
    if name == "zoo-telemetry":
        spec = load_spec(SPECS / "tournament.toml")
        return _only(spec, tuple(ZOO_PARAMS)).with_workload_params(ZOO_PARAMS)
    if name == "sweep-small":
        return load_spec(SPECS / "tournament.toml").small().with_machine("small")
    raise KeyError(name)


def _only(spec: ExperimentSpec, names: tuple[str, ...]) -> ExperimentSpec:
    return replace(spec, workloads=tuple(
        w for w in spec.workloads if w.name in names
    ))


def resolved_params(spec: ExperimentSpec) -> dict[str, dict[str, Any]]:
    """Every workload's full parameter set (defaults plus the spec's)."""
    return {
        w.name: {**workload_class(w.name).default_params(), **w.params}
        for w in spec.workloads
    }


def perturb(params: dict[str, Any], seed: int, key: str) -> dict[str, Any]:
    """The size parameters ``seed`` changes, with their new values.

    Seed 0 changes nothing (the shipped sizes).  Any other seed scales
    every integer size of at least :data:`SIZE_FLOOR` by a factor drawn
    from ``1 ± SIZE_JITTER``, deterministically per ``(seed, key)``.
    ``interval`` is a prefetch distance, not a size, and the machine is
    never touched."""
    if seed == 0:
        return {}
    rng = random.Random(f"{seed}:{key}")
    changed = {}
    for name in sorted(params):
        value = params[name]
        if (name != "interval" and type(value) is int
                and value >= SIZE_FLOOR):
            scaled = round(value * (1 + rng.uniform(-SIZE_JITTER, SIZE_JITTER)))
            if scaled != value:
                changed[name] = scaled
    return changed


def build_spec(name: str, seed: int) -> ExperimentSpec:
    """The spec workload ``name`` runs under ``seed``."""
    spec = base_spec(name)
    changes = {
        bench: perturb(params, seed, f"{name}:{bench}")
        for bench, params in resolved_params(spec).items()
    }
    return spec.with_workload_params(changes)
