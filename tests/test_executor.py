"""Sweep executor: serial/parallel parity, deduplication, error isolation,
never-halting programs and worker crashes."""

import multiprocessing
import os
from dataclasses import replace

import pytest

from repro import Assembler, small_config
from repro.harness import (
    RunSpec,
    SweepError,
    SweepExecutor,
    SweepPlan,
    SweepResults,
    error_row,
    run_spec,
)
from repro.harness.executor import ScheduledRun
from repro.isa import interpreter
from repro.isa.registers import T0
from repro.workloads import Workload, workload_class, workload_names
from repro.workloads.base import BuiltProgram
from repro.workloads import registry as workload_registry

from tests.conftest import shipped_spec

SMALL = {name: workload_class(name).test_params() for name in workload_names()}
FAST_SET = ("treeadd", "power", "health")


@pytest.fixture(scope="module")
def cfg():
    return small_config()


class PoisonedWorkload(Workload):
    """Plans fine (all variants advertised) but every build raises."""

    name = "poisoned"
    structure = "test dummy"
    variants = ("baseline", "sw:queue", "coop:queue")

    def build_variant(self, variant):
        raise RuntimeError("poisoned build")


@pytest.fixture
def poisoned():
    workload_registry.register(PoisonedWorkload)
    yield "poisoned"
    workload_registry.WORKLOADS.unregister("poisoned")


class LoopingWorkload(Workload):
    """A program that never halts: only the interpreter's instruction
    budget ends its cell."""

    name = "looping"
    structure = "test dummy"

    def build_variant(self, variant):
        a = Assembler()
        a.label("main")
        a.addi(T0, T0, 1)
        a.j("main")
        a.halt()  # unreachable; a program must contain one
        return BuiltProgram(a.assemble("looping"))


class CrashingWorkload(workload_class("treeadd")):
    """treeadd whose build kills its process when that process is a pool
    worker; an in-process build raises instead of killing the tests."""

    name = "crashing"

    def build_variant(self, variant):
        if multiprocessing.parent_process() is not None:
            os._exit(13)
        raise RuntimeError("crashing build outside a pool worker")


@pytest.fixture
def misbehaving():
    for cls in (LoopingWorkload, CrashingWorkload):
        workload_registry.register(cls)
    yield
    for cls in (LoopingWorkload, CrashingWorkload):
        workload_registry.WORKLOADS.unregister(cls.name)


def _bystanders(cfg):
    """Four distinct fast, honest cells."""
    return [
        RunSpec.make("treeadd", "baseline", engine, cfg, SMALL["treeadd"])
        for engine in ("none", "dbp", "hardware", "cooperative")
    ]


def cell_error(cells, spec):
    """The error ``resolve`` reports for a run backed by ``spec`` alone
    (as both its timing and its compute cell)."""
    run = ScheduledRun(spec.benchmark, "base", spec.variant, spec, spec)
    return SweepResults(cells).resolve(run)[1]


class TestRunSpec:
    def test_params_frozen_and_order_insensitive(self, cfg):
        a = RunSpec.make("treeadd", "baseline", "none", cfg, {"levels": 3, "passes": 2})
        b = RunSpec.make("treeadd", "baseline", "none", cfg, {"passes": 2, "levels": 3})
        assert a == b and hash(a) == hash(b)

    def test_distinct_cells_differ(self, cfg):
        a = RunSpec.make("treeadd", "baseline", "none", cfg)
        assert a != RunSpec.make("treeadd", "baseline", "dbp", cfg)
        assert a != RunSpec.make("treeadd", "baseline", "none", cfg.perfect())
        assert a != RunSpec.make("treeadd", "baseline", "none", cfg, {"levels": 4})


class TestDeduplication:
    def test_compute_runs_shared_across_schemes(self, cfg):
        plan = SweepPlan(cfg)
        for scheme in ("base", "hardware", "dbp"):
            plan.add_run("treeadd", scheme, SMALL["treeadd"])
        results = plan.execute()
        # base/hardware/dbp all run the baseline program: 3 timing cells
        # plus ONE shared compute cell (deduplicated), not 6 cells.
        assert len(results.cells) == 4


class TestSerialParallelParity:
    def test_figure5_rows_identical(self, cfg):
        spec = shipped_spec("figure5", FAST_SET).with_machine("small")
        serial = run_spec(spec)
        parallel = run_spec(spec, executor=SweepExecutor(jobs=4))
        assert serial == parallel

    def test_figure7_rows_identical(self, cfg):
        spec = shipped_spec("figure7", latency=(70,),
                            interval=(8,)).with_machine("small")
        serial = run_spec(spec)
        parallel = run_spec(spec, executor=SweepExecutor(jobs=4))
        assert serial == parallel

    @pytest.mark.slow
    def test_full_suite_parity(self, cfg):
        spec = shipped_spec("figure5").with_machine("small")
        serial = run_spec(spec)
        parallel = run_spec(spec, executor=SweepExecutor(jobs=4))
        assert serial == parallel


class TestErrorIsolation:
    def test_failed_cell_becomes_error_result(self, cfg):
        specs = [
            RunSpec.make("treeadd", "baseline", "none", cfg, SMALL["treeadd"]),
            RunSpec.make("treeadd", "baseline", "no-such-engine", cfg,
                         SMALL["treeadd"]),
        ]
        cells = SweepExecutor().execute(specs)
        good, bad = cells[specs[0]], cells[specs[1]]
        assert good.ok and good.result.cycles > 0
        assert not bad.ok and "no-such-engine" in bad.error

    def test_scheme_run_raises_on_error_cell(self, cfg):
        plan = SweepPlan(cfg)
        sr = plan.add_run("treeadd", "base", SMALL["treeadd"])
        bad = plan.add(RunSpec.make("treeadd", "baseline", "no-such-engine",
                                    cfg, SMALL["treeadd"]))
        results = plan.execute()
        assert results.scheme_run(sr).total > 0
        failed = replace(sr, timing=bad)
        with pytest.raises(SweepError):
            results.scheme_run(failed)
        # resolve() is the non-raising form the row assemblers use.
        run, err = results.resolve(sr)
        assert err is None and run.total > 0
        run, err = results.resolve(failed)
        assert run is None and "no-such-engine" in err
        assert err == results.error(failed)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_poisoned_worker_yields_error_row(self, cfg, poisoned, jobs):
        rows = run_spec(shipped_spec("figure5", ("treeadd", poisoned))
                        .with_machine("small"),
                        executor=SweepExecutor(jobs=jobs))
        good = [r for r in rows if r["benchmark"] == "treeadd"]
        bad = [r for r in rows if r["benchmark"] == poisoned]
        # The healthy benchmark is untouched by its neighbour's failure...
        assert len(good) == 5
        assert all("error" not in r and r["normalized"] > 0 for r in good)
        # ...and every poisoned cell surfaces as an error row.
        assert len(bad) == 5
        assert all("poisoned build" in r["error_detail"] for r in bad)
        assert all(r["error"].endswith("poisoned build") for r in bad)


class TestErrorKinds:
    def test_cell_error_kind_matches_exception_class(self, cfg):
        specs = [RunSpec.make("treeadd", "baseline", "no-such-engine", cfg,
                              SMALL["treeadd"])]
        cells = SweepExecutor().execute(specs)
        cell = cells[specs[0]]
        assert cell.error_kind == "ConfigError"
        assert "no-such-engine" in cell.error

    def test_sweep_results_error_carries_kind(self, cfg):
        plan = SweepPlan(cfg)
        bad = plan.add(RunSpec.make("treeadd", "baseline", "no-such-engine",
                                    cfg, SMALL["treeadd"]))
        err = cell_error(plan.execute().cells, bad)
        assert err is not None and err.kind == "ConfigError"
        assert "no-such-engine" in err    # still a usable string

    def test_error_rows_greppable_by_kind(self, cfg, poisoned):
        rows = run_spec(shipped_spec("figure5", ("treeadd", poisoned))
                        .with_machine("small"))
        kinds = {r["error_kind"] for r in rows if r.get("error")}
        assert kinds == {"RuntimeError"}


class TestHangAndCrash:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_never_halting_cell_becomes_budget_error_row(
        self, cfg, misbehaving, monkeypatch, jobs
    ):
        # The instruction budget is the one bound on a runaway cell.  It
        # is lowered here (pool workers fork after the patch, so they
        # inherit it) but stays far above what the bystanders execute.
        monkeypatch.setattr(interpreter, "_DEFAULT_MAX_STEPS", 50_000)
        looping = RunSpec.make("looping", "baseline", "none", cfg)
        others = _bystanders(cfg)
        ex = SweepExecutor(jobs=jobs)
        cells = ex.execute([looping, *others])
        assert all(cells[spec].ok for spec in others)
        row = error_row("looping", "base", cell_error(cells, looping))
        assert row["error_kind"] == "ExecutionError"
        assert "instruction budget exceeded (50000)" in row["error"]
        assert ex.stats() == {
            "executed": 5, "failures": 1, "pool_breaks": 0,
        }

    def test_pooled_crash_rebuilds_pool(self, cfg, misbehaving):
        # The crash breaks the first pool; the cells queued behind it run
        # in a rebuilt pool and match a serial run exactly.
        crash = RunSpec.make("crashing", "baseline", "none", cfg,
                             SMALL["treeadd"])
        others = _bystanders(cfg)
        clean = SweepExecutor().execute(others)
        ex = SweepExecutor(jobs=2)
        cells = ex.execute([crash, *others])
        survivors = [spec for spec in others if cells[spec].ok]
        assert len(survivors) >= len(others) - 1
        assert all(cells[spec].result == clean[spec].result
                   for spec in survivors)
        assert ex.stats()["pool_breaks"] >= 1

    def test_pooled_crash_yields_error_row(self, cfg, misbehaving):
        crash = RunSpec.make("crashing", "baseline", "none", cfg,
                             SMALL["treeadd"])
        others = _bystanders(cfg)
        ex = SweepExecutor(jobs=2)
        cells = ex.execute([crash, *others])
        row = error_row("crashing", "base", cell_error(cells, crash))
        assert row["error_kind"] == "BrokenProcessPool"
        # A dying worker fails every cell in flight in its pool: at most
        # the one bystander sharing it.  The rest run in a rebuilt pool.
        failed = [spec for spec in others if not cells[spec].ok]
        assert len(failed) <= 1
        assert all(cells[spec].error_kind == "BrokenProcessPool"
                   for spec in failed)
        assert ex.stats()["pool_breaks"] >= 1


class TestProgress:
    def test_narration_counts_cells(self, cfg):
        lines = []
        run_spec(shipped_spec("figure5", ("treeadd",)).with_machine("small"),
                 executor=SweepExecutor(progress=lines.append))
        # 5 schemes -> 5 timing + 3 distinct variants' compute cells.
        assert len(lines) == 8
        assert lines[-1].startswith("[8/8] ")
        assert all("cycles" in line for line in lines)
