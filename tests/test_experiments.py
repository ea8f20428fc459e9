"""The shipped paper experiments on reduced sizes: structural invariants
of every table/figure spec file, and the X1/X2 rows pinned on the
``small`` machine."""

import pytest

from repro import small_config
from repro.harness import SCHEMES, WorkloadSel, figure5_summary, run_spec

from tests.conftest import shipped_spec

FAST_SET = ("treeadd", "power")


@pytest.fixture(scope="module")
def cfg():
    return small_config()


def run(cfg, name, workloads=None, **axis_values):
    return run_spec(shipped_spec(name, workloads, **axis_values).with_machine("small"))


#: Table 1 on the small machine at test sizes, as the former dedicated
#: characterization cell produced it; the base-spec form must match it
#: exactly, key order included.
TABLE1_PINNED = [
    {"benchmark": "em3d", "insts": 4168, "loads": 1494, "%lds loads": 71.1,
     "L1 miss%": 8.37, "%misses lds": 54.8, "miss parallelism": 1.16,
     "mem frac%": 58.0,
     "structure": "static bipartite lists with per-node pointer arrays, "
                  "many traversals",
     "idioms": "queue"},
    {"benchmark": "health", "insts": 5167, "loads": 558, "%lds loads": 71.3,
     "L1 miss%": 12.05, "%misses lds": 87.0, "miss parallelism": 1.22,
     "mem frac%": 41.8,
     "structure": "hospital tree; dynamic waiting lists with patient ribs, "
                  "many traversals",
     "idioms": "chain/root/full/queue"},
]


class TestTable1:
    def test_pinned_rows(self, cfg):
        rows = run(cfg, "table1", ("em3d", "health"))
        assert [list(r) for r in rows] == [list(r) for r in TABLE1_PINNED]
        assert rows == TABLE1_PINNED

    def test_rows_cover_benchmarks(self, cfg):
        rows = run(cfg, "table1", FAST_SET)
        assert [r["benchmark"] for r in rows] == list(FAST_SET)
        for r in rows:
            assert 0 <= r["%lds loads"] <= 100
            assert 0 <= r["L1 miss%"] <= 100
            assert r["insts"] > 0


class TestFigure4:
    def test_idiom_rows(self, cfg):
        rows = run(cfg, "figure4",
                   (WorkloadSel("health", idioms=("queue", "root")),))
        configs = {r["config"] for r in rows}
        assert {"base", "sw:queue", "sw:root", "coop:queue", "coop:root"} <= configs
        base = [r for r in rows if r["config"] == "base"][0]
        assert base["normalized"] == 1.0
        for r in rows:
            assert r["normalized"] > 0
            assert r["memory"] >= 0

    def test_unavailable_variants_skipped(self, cfg):
        rows = run(cfg, "figure4",
                   (WorkloadSel("treeadd", idioms=("queue", "root")),))
        configs = {r["config"] for r in rows}
        assert "sw:root" not in configs  # treeadd has no root variant
        assert "sw:queue" in configs


class TestFigure5:
    def test_all_schemes_per_benchmark(self, cfg):
        rows = run(cfg, "figure5", FAST_SET)
        assert len(rows) == len(FAST_SET) * len(SCHEMES)
        for r in rows:
            if r["scheme"] == "base":
                assert r["normalized"] == 1.0
            assert r["compute"] > 0

    def test_summary_shapes(self, cfg):
        rows = run(cfg, "figure5", ("treeadd",))
        summary = figure5_summary(rows)
        schemes = {s["scheme"] for s in summary}
        assert schemes == {"software", "cooperative", "hardware", "dbp"}


class TestFigure6:
    def test_bandwidth_rows(self, cfg):
        rows = run(cfg, "figure6", ("treeadd",))
        assert len(rows) == len(SCHEMES)
        for r in rows:
            assert r["bytes/inst"] >= 0


class TestFigure7:
    def test_latency_interval_grid(self, cfg):
        rows = run(cfg, "figure7", latency=(70, 140), interval=(4,))
        assert len(rows) == 2 * 1 * len(SCHEMES)
        base70 = next(
            r for r in rows if r["latency"] == 70 and r["scheme"] == "base"
        )
        base140 = next(
            r for r in rows if r["latency"] == 140 and r["scheme"] == "base"
        )
        assert base140["total"] > base70["total"]  # latency hurts


class TestAblations:
    def test_onchip_table(self, cfg):
        rows = run(cfg, "x1", ("treeadd",), table=(0, 64))
        assert [(r["table"], r["scheme"]) for r in rows] == [
            (0, "base"), (0, "hardware"), (64, "base"), (64, "hardware")]
        assert rows[0]["benchmark"] == "treeadd"
        assert rows[0]["total"] > 0

    def test_creation_overhead_positive(self, cfg):
        rows = run(cfg, "x2", ("treeadd",))
        assert rows[0]["creation overhead%"] > 0  # queue code costs compute

    def test_traversal_count_sweep(self, cfg):
        rows = run(cfg, "x2-passes", passes=(1, 4))
        hw = {r["passes"]: r["normalized"] for r in rows
              if r["scheme"] == "hardware"}
        assert list(hw) == [1, 4]
        # hardware JPP gains nothing on a single pass but does with four
        assert hw[1] >= hw[4] - 0.02


class TestExtensionPins:
    """The X1/X2 spec rows on ``small`` at test sizes, cell for cell the
    numbers the former hand-built sweeps printed."""

    def test_x1_onchip_table(self, cfg):
        rows = run(cfg, "x1")
        hw = {(r["benchmark"], r["table"]): r["normalized"] for r in rows
              if r["scheme"] == "hardware"}
        assert hw == {
            ("em3d", 0): 0.956, ("em3d", 16384): 0.956,
            ("health", 0): 0.973, ("health", 16384): 0.984,
            ("treeadd", 0): 1.0, ("treeadd", 16384): 1.0,
        }
        # The base run has no prefetch engine: the table cannot move it.
        base = {(r["benchmark"], r["table"]): r["total"] for r in rows
                if r["scheme"] == "base"}
        for name in ("em3d", "health", "treeadd"):
            assert base[(name, 0)] == base[(name, 16384)]

    def test_x2_overhead_pins(self, cfg):
        rows = run(cfg, "x2")
        assert rows == [
            {"benchmark": "health", "variant": "sw:chain",
             "creation overhead%": 23.5},
            {"benchmark": "treeadd", "variant": "sw:queue",
             "creation overhead%": 38.7},
        ]

    def test_x2_passes(self, cfg):
        rows = run(cfg, "x2-passes")
        coop = [r["normalized"] for r in rows if r["scheme"] == "cooperative"]
        assert [r["passes"] for r in rows if r["scheme"] == "cooperative"] \
            == [1, 2, 4, 8]
        assert coop == [1.148, 1.141, 1.122, 1.1]
