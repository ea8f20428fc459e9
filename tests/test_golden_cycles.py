"""Golden cycle counts: the timing model's output is part of the repo's
contract.

``golden_cycles.json`` pins ``cycles``, ``compute`` (perfect-data-memory
cycles) and ``instructions`` for every workload under every scheme at the
test sizes.  Performance work on the interpreter/timing model must keep
these bit-identical; a legitimate *model* change (one that intends to
alter simulated behaviour) must regenerate the file and say so in the
commit.

Entry keys are display names; an entry may name its ``workload``
explicitly (so one workload can be pinned at several sizes, e.g.
``treeadd@deep``), may pin a specific prefetch ``idiom`` for the
software/cooperative schemes (e.g. ``health@sw-root`` pins the
root-jumping variant instead of the workload's default), and may carry
``overrides``, dotted-path machine overrides applied on top of the
``small`` machine (e.g. ``em3d@mshr-full`` sets ``{"mshr_model":
"full"}`` to run the same cell under the fully non-blocking
hierarchy).  Each pin runs
as a one-workload experiment spec (:func:`repro.audit.gate.golden_spec`)
through :func:`golden_drift`; this file is the pins' only runner.
"""

import copy
import json
from dataclasses import replace
from pathlib import Path
from typing import Any

import pytest

from repro.audit.gate import GOLDEN_METRICS, golden_spec
from repro.harness import SweepError, compile_spec, run_spec, spec_key

from tests.conftest import shipped_spec

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_cycles.json").read_text()
)


def golden_drift(label: str, entry: dict[str, Any]) -> list[dict[str, Any]]:
    """Re-run one golden pin (its :func:`golden_spec` on ``small``) and
    report its per-metric drift.

    Output rows name the cell, scheme and metric with the golden value,
    the observed value, and the signed delta — so a regression reads as
    "treeadd/hardware cycles drifted +212 (+1.8%)", not "golden file
    mismatch".  An empty list means zero drift (the timing model is
    pinned bit-exact).
    """
    rows: list[dict[str, Any]] = []
    for got in run_spec(golden_spec(label, entry)):
        scheme = got["scheme"]
        if "error" in got:
            raise SweepError(
                f"{label}/{scheme} failed:\n{got['error_detail']}"
            )
        want = entry["schemes"][scheme]
        for metric in GOLDEN_METRICS:
            drift = got[metric] - want[metric]
            if drift == 0:
                continue
            rows.append({
                "cell": label,
                "scheme": scheme,
                "metric": metric,
                "golden": want[metric],
                "observed": got[metric],
                "drift": f"{drift:+d}"
                + (f" ({drift / want[metric]:+.2%})" if want[metric] else ""),
            })
    return rows


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_cycles(name):
    assert golden_drift(name, GOLDEN[name]) == []


def test_golden_drift_reports_named_drift():
    # One doctored pin of one scheme reads as a named, signed drift.
    label, scheme = "treeadd", "hardware"
    pin = copy.deepcopy(GOLDEN[label])
    pin["schemes"] = {scheme: pin["schemes"][scheme]}
    pin["schemes"][scheme]["cycles"] += 100
    (row,) = golden_drift(label, pin)
    assert row["cell"] == label and row["scheme"] == scheme
    assert row["metric"] == "cycles"
    assert row["drift"].startswith("-100")


def test_pin_plans_no_unused_base_cell():
    # The zoo pins list no `base` scheme and no column normalizes to it,
    # so em3d@zoo is its four zoo timing cells plus the one compute cell
    # they share: no baseline timing cell is planned.
    entry = GOLDEN["em3d@zoo"]
    compiled = compile_spec(golden_spec("em3d@zoo", entry, "small"))
    assert compiled.cell_count == 5
    assert all(rp.base is None for rp in compiled.rows)
    assert golden_drift("em3d@zoo", entry) == []


def _cells(spec):
    """The cache keys of the cells ``spec`` plans on ``small``."""
    return {spec_key(cell) for cell in
            compile_spec(spec.with_machine("small")).plan.cells()}


def _pin_cells(label, telemetry=False):
    return _cells(replace(golden_spec(label, GOLDEN[label]),
                          telemetry=telemetry))


def test_shipped_specs_run_the_pinned_cells():
    """At test sizes the shipped specs plan the golden pins' cells, so
    the rows they print are the pinned numbers: simulation is
    deterministic and test_golden_cycles runs every pin.  Nothing is
    simulated here."""
    figure5 = shipped_spec("figure5")
    assert _cells(figure5) == set().union(
        *(_pin_cells(w.name) for w in figure5.workloads))
    assert _cells(shipped_spec("x4")) == _pin_cells("spmv")
    # The tournament's zoo cells are the @zoo pins with telemetry, a pure
    # observer that is part of the cell key.
    tournament = _cells(shipped_spec("tournament"))
    zoo = [label for label in GOLDEN if label.endswith("@zoo")]
    assert len(zoo) == 3
    for label in zoo:
        assert _pin_cells(label, telemetry=True) <= tournament, label
    # Table 1 executes nothing on a cache the tournament filled.
    assert _cells(shipped_spec("table1")) <= tournament
