"""Sweep executor: serial/parallel parity, deduplication, error isolation,
timeouts and worker crashes."""

import multiprocessing
import os
import time
from dataclasses import replace

import pytest

from repro import small_config
from repro.harness import (
    RunSpec,
    SweepError,
    SweepExecutor,
    SweepPlan,
    SweepResults,
    error_row,
    run_spec,
)
from repro.workloads import Workload, workload_class, workload_names
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


class SleepyWorkload(workload_class("treeadd")):
    """treeadd whose every build first sleeps ``seconds``: a cell that
    overruns the sweep timeout, or hangs a pool worker past it."""

    name = "sleepy"

    @classmethod
    def default_params(cls):
        return {**super().default_params(), "seconds": 0.0}

    def build_variant(self, variant):
        time.sleep(self.params.get("seconds", 0.0))
        return super().build_variant(variant)


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
    for cls in (SleepyWorkload, CrashingWorkload):
        workload_registry.register(cls)
    yield
    for cls in (SleepyWorkload, CrashingWorkload):
        workload_registry.WORKLOADS.unregister(cls.name)


def _bystanders(cfg):
    """Four distinct fast, honest cells."""
    return [
        RunSpec.make("treeadd", "baseline", engine, cfg, SMALL["treeadd"])
        for engine in ("none", "dbp", "hardware", "cooperative")
    ]


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
        spec = shipped_spec("figure5", FAST_SET)
        serial = run_spec(spec, cfg=cfg)
        parallel = run_spec(spec, cfg=cfg, executor=SweepExecutor(jobs=4))
        assert serial == parallel

    def test_figure7_rows_identical(self, cfg):
        spec = shipped_spec("figure7", latency=(70,), interval=(8,))
        serial = run_spec(spec, cfg=cfg)
        parallel = run_spec(spec, cfg=cfg, executor=SweepExecutor(jobs=4))
        assert serial == parallel

    @pytest.mark.slow
    def test_full_suite_parity(self, cfg):
        spec = shipped_spec("figure5")
        serial = run_spec(spec, cfg=cfg)
        parallel = run_spec(spec, cfg=cfg, executor=SweepExecutor(jobs=4))
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
        assert results.error(bad) is not None
        with pytest.raises(SweepError):
            results.scheme_run(replace(sr, timing=bad))
        # resolve() is the non-raising form the row assemblers use.
        run, err = results.resolve(sr)
        assert err is None and run.total > 0
        run, err = results.resolve(replace(sr, timing=bad))
        assert run is None and err == results.error(bad)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_poisoned_worker_yields_error_row(self, cfg, poisoned, jobs):
        rows = run_spec(shipped_spec("figure5", ("treeadd", poisoned)),
                        cfg=cfg, executor=SweepExecutor(jobs=jobs))
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
        results = plan.execute()
        err = results.error(bad)
        assert err is not None and err.kind == "ConfigError"
        assert "no-such-engine" in err    # still a usable string

    def test_error_rows_greppable_by_kind(self, cfg, poisoned):
        rows = run_spec(shipped_spec("figure5", ("treeadd", poisoned)),
                        cfg=cfg)
        kinds = {r["error_kind"] for r in rows if r.get("error")}
        assert kinds == {"RuntimeError"}


class TestHangAndCrash:
    def test_serial_overrun_becomes_timeout_row(self, cfg, misbehaving):
        # Serial execution cannot preempt: the cell completes after its
        # 1.5 s nap and is then charged a timeout.
        slow = RunSpec.make("sleepy", "baseline", "none", cfg,
                            {**SMALL["treeadd"], "seconds": 1.5})
        fast = _bystanders(cfg)[0]
        ex = SweepExecutor(timeout=1.0)
        cells = ex.execute([slow, fast])
        assert cells[fast].ok
        row = error_row("sleepy", "base", SweepResults(cells).error(slow))
        assert row["error_kind"] == "TimeoutError"
        assert "exceeded --timeout" in row["error_detail"]
        assert ex.stats()["timeouts"] == 1
        assert ex.stats()["failures"] == 1

    def test_pooled_hang_is_reaped_before_it_finishes(self, cfg, misbehaving):
        # The pool must NOT wait out the 120 s nap: the deadline reaps
        # the hung worker.  The bystanders, 0.8 s each on the other
        # worker, are still running one of their own at the reap; it is
        # requeued uncharged and finishes in a fresh pool.
        hung = RunSpec.make("sleepy", "baseline", "none", cfg,
                            {**SMALL["treeadd"], "seconds": 120.0})
        others = [
            RunSpec.make("sleepy", "baseline", "none", cfg,
                         {**SMALL["treeadd"], "seconds": 0.8 + i / 100})
            for i in range(3)
        ]
        ex = SweepExecutor(jobs=2, timeout=2.0)
        start = time.monotonic()
        cells = ex.execute([hung, *others])
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"hung worker was waited out ({elapsed:.0f}s)"
        assert all(cells[spec].ok for spec in others)
        assert cells[hung].error_kind == "TimeoutError"
        assert "hung worker terminated" in cells[hung].error
        stats = ex.stats()
        assert stats["timeouts"] == 1
        assert stats["failures"] == 1
        assert stats["pool_breaks"] >= 1

    def test_pooled_timeout_becomes_error_row(self, cfg, misbehaving):
        # One attempt only: the reaped cell is an error row, not rerun.
        hung = RunSpec.make("sleepy", "baseline", "none", cfg,
                            {**SMALL["treeadd"], "seconds": 120.0})
        fast = _bystanders(cfg)[0]
        ex = SweepExecutor(jobs=2, timeout=1.0)
        cells = ex.execute([hung, fast])
        assert cells[fast].ok
        row = error_row("sleepy", "base", SweepResults(cells).error(hung))
        assert row["error_kind"] == "TimeoutError"
        assert "exceeded --timeout" in row["error_detail"]
        assert ex.stats()["timeouts"] == 1
        assert ex.stats()["executed"] == 2

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
        row = error_row("crashing", "base", SweepResults(cells).error(crash))
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
        run_spec(shipped_spec("figure5", ("treeadd",)), cfg=cfg,
                 executor=SweepExecutor(progress=lines.append))
        # 5 schemes -> 5 timing + 3 distinct variants' compute cells.
        assert len(lines) == 8
        assert lines[-1].startswith("[8/8] ")
        assert all("cycles" in line for line in lines)
