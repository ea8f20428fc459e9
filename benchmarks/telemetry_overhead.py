"""Telemetry-overhead smoke check (run directly, also wired into CI).

Simulates the ``health`` benchmark under the hardware scheme and compares
cycles-simulated-per-second across three modes:

* **off**     — ``telemetry=None``: the no-op fast path every normal run
  takes.  Each hook site must reduce to a single ``is None`` check.
* **metrics** — a :class:`repro.obs.Telemetry` with the registry and
  outcome tracker active (what ``python -m repro run --telemetry`` uses).
* **trace**   — metrics plus the structured event trace.
* **profile** — a :class:`repro.obs.Profiler` charging every commit to a
  CPI-stack bucket (what ``python -m repro run --profile`` uses).

Asserted invariants:

1. All modes simulate the identical cycle count — observability must
   never perturb timing.  The profiler in particular is a pure
   observer: its CPI-stack buckets must also sum to that cycle count.
2. The metrics path costs < ``MAX_METRICS_OVERHEAD`` over the no-op path
   (a tripwire against accidentally hoisting telemetry work onto the
   default path: if the gap collapses it means the "disabled" path is
   doing telemetry work; if it explodes the instruments got too fat).
3. The profiler costs < ``MAX_PROFILE_OVERHEAD`` when attached — it
   rides the commit loop, so its per-instruction work must stay a few
   dict updates.

Wall-clock-vs-seed (<5%, and <2% for the profiling-off path of this
PR's commit-loop changes) cannot be measured inside one checkout; it is
tracked at PR time by timing ``python -m repro run health`` against the
previous revision (see EXPERIMENTS.md, "Observability").
"""

from __future__ import annotations

import sys
import time

sys.path.insert(0, "src")

from repro import Telemetry, bench_config, get_workload, simulate  # noqa: E402
from repro.obs import EventTrace, Profiler  # noqa: E402

MAX_METRICS_OVERHEAD = 0.50  # fractional slowdown allowed for metrics mode
MAX_PROFILE_OVERHEAD = 0.75  # fractional slowdown allowed for profile mode
REPS = 3
PARAMS = {"levels": 4, "branching": 3, "npat": 10, "iterations": 12}


def _best_time(program, telemetry_factory, profile_factory=lambda: None):
    best = float("inf")
    cycles = None
    last_profiler = None
    for __ in range(REPS):
        profiler = profile_factory()
        t0 = time.perf_counter()
        res = simulate(program, bench_config(), engine="hardware",
                       telemetry=telemetry_factory(), profile=profiler)
        best = min(best, time.perf_counter() - t0)
        assert cycles is None or cycles == res.cycles, "nondeterministic run"
        cycles = res.cycles
        last_profiler = profiler
    return best, cycles, last_profiler


def main() -> int:
    program = get_workload("health", **PARAMS).build("baseline").program

    t_off, c_off, __ = _best_time(program, lambda: None)
    t_met, c_met, __ = _best_time(program, Telemetry)
    t_trc, c_trc, __ = _best_time(program, lambda: Telemetry(trace=EventTrace()))
    t_prf, c_prf, profiler = _best_time(program, lambda: None, Profiler)

    assert c_off == c_met == c_trc == c_prf, (
        f"observability changed simulated cycles: off={c_off} "
        f"metrics={c_met} trace={c_trc} profile={c_prf}"
    )
    assert sum(profiler.buckets.values()) == c_prf, (
        f"CPI stack lost cycles: {sum(profiler.buckets.values())} != {c_prf}"
    )
    overhead = t_met / t_off - 1.0
    prof_overhead = t_prf / t_off - 1.0
    print(f"health/hardware: {c_off} cycles")
    print(f"  telemetry off    : {t_off:.3f}s  ({c_off / t_off:,.0f} cycles/s)")
    print(f"  metrics          : {t_met:.3f}s  (+{overhead:.1%})")
    print(f"  metrics + trace  : {t_trc:.3f}s  (+{t_trc / t_off - 1.0:.1%})")
    print(f"  profiler         : {t_prf:.3f}s  (+{prof_overhead:.1%})")
    assert overhead < MAX_METRICS_OVERHEAD, (
        f"metrics-mode overhead {overhead:.1%} exceeds "
        f"{MAX_METRICS_OVERHEAD:.0%} — check the no-op fast path"
    )
    assert prof_overhead < MAX_PROFILE_OVERHEAD, (
        f"profiler overhead {prof_overhead:.1%} exceeds "
        f"{MAX_PROFILE_OVERHEAD:.0%} — the charge path got too fat"
    )
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
