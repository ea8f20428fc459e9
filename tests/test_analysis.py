"""Bottleneck analysis: where do the cycles go?

The profiler charges each committed instruction the cycles by which it
advanced the in-order commit front, keyed by ``(pc, reason)``.  These
checks read that table the way a user hunting a bottleneck does: per
instruction kind, ranked, and rendered through the CLI's table view.
"""

from repro import simulate
from repro.harness.reporting import format_table
from repro.obs import Profiler, hot_site_rows

from tests.conftest import assemble_list_walk, assemble_loop_sum


def _profile(program, cfg):
    prof = Profiler()
    result = simulate(program, cfg, profile=prof)
    return prof, result


def _share_of(program, prof, op, tag):
    """Share of all cycles charged to instructions ``op`` tagged ``tag``."""
    charged = 0
    for (pc, __), cyc in prof.stall_attribution.items():
        si = program.instructions[pc]
        if si.op.name == op and si.tag == tag:
            charged += cyc
    return charged / prof.cycles


def test_report_sums_to_total(cfg):
    program, __ = assemble_list_walk(48)
    prof, result = _profile(program, cfg)
    cycles = [cyc for __, __r, cyc in prof.to_dict()["stall_attribution"]]
    assert sum(cycles) == result.cycles
    assert abs(sum(c / result.cycles for c in cycles) - 1.0) < 1e-9


def test_lines_sorted_descending(cfg):
    program, __ = assemble_list_walk(48)
    prof, __r = _profile(program, cfg)
    cycles = [cyc for __, __r, cyc in prof.to_dict()["stall_attribution"]]
    assert cycles == sorted(cycles, reverse=True)


def test_pointer_chase_blames_lds_loads(tiny_cfg):
    program, __ = assemble_list_walk(96)
    prof, __r = _profile(program, tiny_cfg)
    assert _share_of(program, prof, "LW", "lds") > 0.3


def test_compute_loop_blames_no_lds(cfg):
    program, __ = assemble_loop_sum(300)
    prof, __r = _profile(program, cfg)
    assert _share_of(program, prof, "LW", "lds") == 0.0


def test_format_and_top(cfg):
    program, __ = assemble_list_walk(16)
    prof, __r = _profile(program, cfg)
    rows = hot_site_rows(prof.to_dict(), top=3)
    assert 0 < len(rows) <= 3
    text = format_table(hot_site_rows(prof.to_dict(), top=5))
    assert "stalls" in text and "share" in text
