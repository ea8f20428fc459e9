"""Tournament reporting: rank every scheme across every workload.

The tournament spec (``examples/specs/tournament.toml``) crosses the
full scheme registry — the paper's four plus the zoo — against every
workload with telemetry attached, so each (scheme, workload) cell
carries its per-prefetch outcome partition.  This module turns those
per-cell rows into the ranked per-scheme summary: geometric-mean
normalized execution time (the figure-of-merit; lower is better),
aggregate timely/late/early-evicted/useless/dropped counts, and overall
prefetch accuracy.  ``repro run-spec`` prints it for any spec that
:func:`is_tournament_spec` accepts.

Ranking is by geomean normalized time over the cells a scheme
*completed*; a scheme with any failed cell is ranked after every clean
scheme (partial wins don't beat finished races) and its error count is
shown.  The outcome totals obey the obs layer's conservation law per
cell — ``timely + late + early-evicted + useless == issued`` and the
``dropped`` column counts PRQ rejections — so the summary's totals do
too.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Sequence

from ..obs.outcomes import OUTCOMES

#: Row columns the summary aggregates (must be present in the spec).
REQUIRED_COLUMNS = ("scheme", "normalized", "issued", *OUTCOMES)

#: Columns of the ranked summary table, in print order.
SUMMARY_COLUMNS = (
    "rank", "scheme", "geomean", "best", "worst", "cells", "errors",
    "issued", "timely", "late", "early-evicted", "useless", "dropped",
    "accuracy%",
)


def _geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tournament_summary(
    rows: Sequence[Mapping[str, Any]], label_key: str = "scheme"
) -> list[dict[str, Any]]:
    """Rank schemes over per-cell spec rows.

    ``rows`` are ``run-spec`` matrix rows carrying ``normalized`` plus
    the outcome columns; error rows (no ``normalized``) count against
    their scheme's ``errors`` column.  Returns one row per scheme,
    ranked best (lowest geomean normalized time) first.
    """
    per_scheme: dict[str, dict[str, Any]] = {}
    for row in rows:
        scheme = row.get(label_key)
        if scheme is None:
            continue
        agg = per_scheme.setdefault(str(scheme), {
            "normalized": [], "errors": 0, "issued": 0,
            **{o: 0 for o in OUTCOMES},
        })
        norm = row.get("normalized")
        if not isinstance(norm, (int, float)) or norm <= 0:
            agg["errors"] += 1
            continue
        agg["normalized"].append(float(norm))
        agg["issued"] += int(row.get("issued", 0) or 0)
        for outcome in OUTCOMES:
            agg[outcome] += int(row.get(outcome, 0) or 0)

    summary = []
    for scheme, agg in per_scheme.items():
        norms = agg["normalized"]
        issued = agg["issued"]
        summary.append({
            "scheme": scheme,
            "geomean": round(_geomean(norms), 3) if norms else None,
            "best": round(min(norms), 3) if norms else None,
            "worst": round(max(norms), 3) if norms else None,
            "cells": len(norms),
            "errors": agg["errors"],
            "issued": issued,
            **{o: agg[o] for o in OUTCOMES},
            "accuracy%": (
                round(100 * agg["timely"] / issued, 1) if issued else 0.0
            ),
        })
    # Clean schemes first, then by geomean; error-struck schemes sort
    # after every clean one (a partial race is not a win), ties broken
    # by name for determinism.
    summary.sort(key=lambda r: (
        r["errors"] > 0,
        r["geomean"] if r["geomean"] is not None else math.inf,
        r["scheme"],
    ))
    for rank, row in enumerate(summary, start=1):
        row["rank"] = rank
    return [
        {col: row.get(col) for col in SUMMARY_COLUMNS} for row in summary
    ]


def is_tournament_spec(spec) -> bool:
    """True when a spec's rows can feed :func:`tournament_summary`:
    telemetry-attached matrix rows labeled by scheme, with the
    normalized and outcome columns present."""
    return (
        spec.kind == "matrix"
        and spec.telemetry
        and spec.label_key == "scheme"
        and all(c in spec.columns for c in ("normalized", "issued"))
        and all(o in spec.columns for o in OUTCOMES)
    )


__all__ = [
    "REQUIRED_COLUMNS",
    "SUMMARY_COLUMNS",
    "is_tournament_spec",
    "tournament_summary",
]
