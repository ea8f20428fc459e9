"""Benchmark-report diffing: signed per-metric drift with tolerance bands.

Compares two layer-budget reports (``BENCH_LAYERS.json``, emitted by
``benchmarks/layer_budget.py``) leaf by leaf and classifies every
numeric metric under a small rule table, the same shape as
:mod:`repro.audit.paper_targets`' drift rows:

* ``exact``  — must be bit-identical (simulated cycle and instruction
  counts).  Any drift means the *timing model* changed, which a perf PR
  must never do.
* ``lower``  — smaller is better (wall-clock seconds, host ns per
  simulated instruction).  Fails when the current value exceeds
  ``baseline * (1 + tolerance)``.
* ``higher`` — bigger is better.  Fails when the current value falls
  below ``baseline * (1 - tolerance)``.  No default rule uses it; pass
  custom ``rules`` for throughput-style reports.
* ``info``   — reported but never gating (CPU counts, noise-dominated
  layer costs, metrics present in only one report, leaves no rule
  matches).

``compare_benchmarks`` is the pure core; the ``repro bench-diff`` CLI
subcommand wraps it with file loading and a non-zero exit on
regressions (wired into CI as the perf-regression gate).  End-to-end
sweep wall time and simulated insts/s are measured by ``bench/run.py``,
not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

__all__ = [
    "BenchRule",
    "DEFAULT_RULES",
    "compare_benchmarks",
    "flatten_report",
    "regressions",
]


@dataclass(frozen=True)
class BenchRule:
    """Classification rule for metric leaves whose name matches ``leaf``.

    ``leaf`` matches the final dotted-path component; a leading ``*``
    makes it a suffix match (``*ns_per_inst`` catches
    ``mem_ns_per_inst``, ``prefetch_ns_per_inst``, ...).  First matching
    rule in the table wins, so put specific names (``cpu_ns_per_inst``)
    before wildcards.
    """

    leaf: str
    mode: str  # "exact" | "lower" | "higher" | "info"
    tolerance: float | None = None  # None -> comparator default

    def matches(self, name: str) -> bool:
        if self.leaf.startswith("*"):
            return name.endswith(self.leaf[1:])
        return name == self.leaf


#: Rule table for ``layer_budget.py`` reports.  Ordered: first match wins.
DEFAULT_RULES: tuple[BenchRule, ...] = (
    # Machine-independent simulation facts: any drift is a model change.
    BenchRule("cycles", "exact"),
    BenchRule("instructions", "exact"),
    BenchRule("cpu_count", "info"),
    # Wall-clock: smaller is better.
    BenchRule("*seconds", "lower"),
    # isa is timed directly and cpu is the difference of two large runs,
    # so both gate like wall-clock.  mem and prefetch are differences of
    # near-equal runs on the compute-bound kernels and are
    # noise-dominated there: report only.
    BenchRule("isa_ns_per_inst", "lower"),
    BenchRule("cpu_ns_per_inst", "lower"),
    BenchRule("*ns_per_inst", "info"),
)


def flatten_report(doc: Mapping[str, Any], prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a nested report as ``dotted.path -> value``.

    Non-numeric leaves (schema tags, benchmark-name lists) are skipped;
    bools are not numbers here.
    """
    out: dict[str, float] = {}
    for key, value in doc.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, Mapping):
            out.update(flatten_report(value, path))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[path] = value
    return out


def _rule_for(name: str, rules: tuple[BenchRule, ...]) -> BenchRule | None:
    leaf = name.rsplit(".", 1)[-1]
    for rule in rules:
        if rule.matches(leaf):
            return rule
    return None


def _evaluate(
    mode: str, base: float, cur: float, tol: float
) -> tuple[bool, str]:
    """(ok, band-description) for one metric under one rule."""
    if mode == "exact":
        return cur == base, "=="
    if mode == "lower":
        return cur <= base * (1.0 + tol), f"<= {1.0 + tol:.2f}x"
    if mode == "higher":
        return cur >= base * (1.0 - tol), f">= {1.0 - tol:.2f}x"
    return True, "info"


def compare_benchmarks(
    baseline: Mapping[str, Any],
    current: Mapping[str, Any],
    rules: tuple[BenchRule, ...] = DEFAULT_RULES,
    tolerance: float = 0.25,
) -> list[dict]:
    """Per-metric drift rows between two benchmark reports.

    Returns one row per numeric leaf present in either report, ordered
    by dotted path: ``{"metric", "mode", "baseline", "current",
    "drift", "band", "ok"}``.  A metric missing from ``current`` fails
    (the report shrank — a silent loss of coverage) unless its rule is
    ``info``; one missing from ``baseline`` is informational (new
    metric, nothing to regress against).  ``tolerance`` is the default
    relative band for ``lower``/``higher`` rules without their own.
    """
    base_leaves = flatten_report(baseline)
    cur_leaves = flatten_report(current)
    rows: list[dict] = []
    for name in sorted(set(base_leaves) | set(cur_leaves)):
        rule = _rule_for(name, rules)
        mode = rule.mode if rule else "info"
        tol = tolerance if rule is None or rule.tolerance is None else rule.tolerance
        base = base_leaves.get(name)
        cur = cur_leaves.get(name)
        if base is None:
            ok, band = True, "new"
        elif cur is None:
            ok, band = mode == "info", "missing"
        elif not (math.isfinite(base) and math.isfinite(cur)):
            ok, band = False, "non-finite"
        else:
            ok, band = _evaluate(mode, base, cur, tol)
        drift = None if base is None or cur is None else cur - base
        rows.append({
            "metric": name,
            "mode": mode,
            "baseline": base,
            "current": cur,
            "drift": None if drift is None else round(drift, 3),
            "band": band,
            "ok": ok,
        })
    return rows


def regressions(rows: list[dict]) -> list[dict]:
    """The failing subset of :func:`compare_benchmarks` rows."""
    return [row for row in rows if not row["ok"]]
