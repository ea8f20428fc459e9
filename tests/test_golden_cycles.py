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
as a one-workload experiment spec through
:func:`repro.audit.gate.golden_drift`, the same check as ``repro
audit``'s fidelity gate.
"""

import json
from pathlib import Path

import pytest

from repro.audit import golden_drift
from repro.audit.gate import golden_spec
from repro.harness import compile_spec

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_cycles.json").read_text()
)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_cycles(name):
    assert golden_drift(name, GOLDEN[name], "small") == []


def test_pin_plans_no_unused_base_cell():
    # The zoo pins list no `base` scheme and no column normalizes to it,
    # so em3d@zoo is its four zoo timing cells plus the one compute cell
    # they share: no baseline timing cell is planned.
    entry = GOLDEN["em3d@zoo"]
    compiled = compile_spec(golden_spec("em3d@zoo", entry, "small"))
    assert compiled.cell_count == 5
    assert all(rp.base is None for rp in compiled.rows)
    assert golden_drift("em3d@zoo", entry, "small") == []
