"""Telemetry-overhead smoke check (run directly, also wired into CI).

Simulates the ``health`` benchmark under the hardware scheme and compares
simulation wall time across four modes:

* **off**     — ``telemetry=None``: the no-op fast path every normal run
  takes.  Each hook site must reduce to a single ``is None`` check.
* **metrics** — a :class:`repro.obs.Telemetry` with the registry and
  outcome tracker active (what ``python -m repro run --telemetry`` uses).
* **trace**   — metrics plus the structured event trace.
* **profile** — a :class:`repro.obs.Profiler` charging every commit to a
  CPI-stack bucket (what ``python -m repro run --profile`` uses).

Asserted bounds (wall clock, so they live here and not in the test
suite):

1. The metrics path costs < ``MAX_METRICS_OVERHEAD`` over the no-op path
   (a tripwire against accidentally hoisting telemetry work onto the
   default path: if the gap collapses it means the "disabled" path is
   doing telemetry work; if it explodes the instruments got too fat).
2. The profiler costs < ``MAX_PROFILE_OVERHEAD`` when attached — it
   rides the commit loop, so its per-instruction work must stay a few
   dict updates.

That no observer changes a run (cycles, instructions and every counter)
and that the CPI stack sums to the cycle count are tier-1 tests:
``tests/test_profile.py::TestObserverPurity::
test_observers_never_change_a_run`` and
``TestConservation::test_buckets_sum_to_cycles``.

Wall-clock-vs-seed cannot be measured inside one checkout; it is
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


def _best_times(program, modes):
    """Best-of-``REPS`` wall time per mode, the modes interleaved so that
    warm-up and host drift do not favour whichever mode runs first."""
    best = dict.fromkeys(modes, float("inf"))
    for __ in range(REPS):
        for mode, observers in modes.items():
            kwargs = observers()
            t0 = time.perf_counter()
            simulate(program, bench_config(), engine="hardware", **kwargs)
            best[mode] = min(best[mode], time.perf_counter() - t0)
    return best


def main() -> int:
    program = get_workload("health", **PARAMS).build("baseline").program

    best = _best_times(program, {
        "off": dict,
        "metrics": lambda: {"telemetry": Telemetry()},
        "trace": lambda: {"telemetry": Telemetry(trace=EventTrace())},
        "profile": lambda: {"profile": Profiler()},
    })
    t_off, t_met, t_trc, t_prf = best.values()

    overhead = t_met / t_off - 1.0
    prof_overhead = t_prf / t_off - 1.0
    print("health/hardware:")
    print(f"  telemetry off    : {t_off:.3f}s")
    print(f"  metrics          : {t_met:.3f}s  ({overhead:+.1%})")
    print(f"  metrics + trace  : {t_trc:.3f}s  ({t_trc / t_off - 1.0:+.1%})")
    print(f"  profiler         : {t_prf:.3f}s  ({prof_overhead:+.1%})")
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
