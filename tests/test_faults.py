"""Robustness layer: fault injection, retry/timeout, checkpoint-resume.

Every failure mode the executor claims to survive is driven here through
a deterministic :class:`FaultPlan` — crash, hang-past-timeout, N
transient failures, corrupt cache entry — over both the serial and the
``jobs=2`` pooled paths, asserting the assembled rows stay bit-identical
to a fault-free sweep and that the obs counters tell the story.
"""

from __future__ import annotations

import json
import multiprocessing
import pickle
import time

import pytest

from repro import small_config
from repro.harness import (
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    RunSpec,
    SweepExecutor,
    SweepJournal,
    SweepPlan,
    TransientFault,
    figure5,
    parse_fault_plan,
    spec_key,
)
from repro.harness.faults import FAULT_KINDS
from repro.harness.journal import SCHEMA as JOURNAL_SCHEMA
from repro.obs import MetricRegistry
from repro.workloads import workload_class

PAIR = ("treeadd", "power")
SMALL = {name: workload_class(name).test_params() for name in PAIR}
#: 2 benchmarks x (5 timing + 3 distinct compute) cells.
PAIR_CELLS = 16

#: Wall-clock budget generous enough that honest small cells never trip
#: it, small enough that hang drills stay quick.
TIMEOUT = 30.0


@pytest.fixture(scope="module")
def cfg():
    return small_config()


@pytest.fixture(scope="module")
def clean_rows(cfg):
    return figure5(cfg, benchmarks=PAIR, params=SMALL)


def faulty_figure5(cfg, executor):
    return figure5(cfg, benchmarks=PAIR, params=SMALL, executor=executor)


def make_executor(**kw):
    kw.setdefault("backoff", 0.0)
    kw.setdefault("sleep", lambda s: None)
    kw.setdefault("registry", MetricRegistry())
    return SweepExecutor(**kw)


# ----------------------------------------------------------------------
# Fault-plan mini-language
# ----------------------------------------------------------------------

class TestFaultPlanParsing:
    def test_bare_benchmark_defaults(self):
        plan = FaultPlan.parse("treeadd=crash")
        (rule,) = plan.specs
        assert (rule.benchmark, rule.variant, rule.engine) == \
            ("treeadd", "*", "*")
        assert rule.kind == "crash" and rule.times == 1 and rule.seconds is None

    def test_full_selector_times_and_seconds(self):
        plan = FaultPlan.parse(
            "health/baseline/hardware=transient:2, em3d//dbp=hang:3@2.5"
        )
        first, second = plan.specs
        assert first == FaultSpec("health", "baseline", "hardware",
                                  "transient", 2)
        assert second == FaultSpec("em3d", "*", "dbp", "hang", 3, 2.5)

    @pytest.mark.parametrize("bad", [
        "", "treeadd", "=crash", "treeadd=explode", "a/b/c/d=crash",
        "treeadd=crash:x", "treeadd=hang@y", "treeadd=crash:0",
    ])
    def test_rejects_malformed_plans(self, bad):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse(bad)

    def test_only_worker_and_cache_kinds_parse(self):
        assert FAULT_KINDS == ("crash", "hang", "transient", "corrupt")
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            FaultPlan.parse("treeadd=crash-pool")

    def test_parse_fault_plan_passthrough(self):
        assert parse_fault_plan(None) is None
        assert parse_fault_plan("") is None
        assert parse_fault_plan("treeadd=crash") is not None

    def test_plan_pickles_into_workers(self):
        plan = FaultPlan.parse("treeadd/baseline=hang:2@1.5, power=corrupt")
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestFaultPlanMatching:
    def test_fires_only_for_matching_attempts(self, cfg):
        plan = FaultPlan.of(FaultSpec("treeadd", kind="transient", times=2))
        spec = RunSpec.make("treeadd", "baseline", "none", cfg)
        other = RunSpec.make("power", "baseline", "none", cfg)
        assert plan.fires(spec, 0) and plan.fires(spec, 1)
        assert not plan.fires(spec, 2)
        assert not plan.fires(other, 0)

    def test_glob_selectors(self, cfg):
        plan = FaultPlan.of(FaultSpec("tree*", "sw:*", kind="transient"))
        assert plan.fires(RunSpec.make("treeadd", "sw:queue", "software", cfg), 0)
        assert not plan.fires(RunSpec.make("treeadd", "baseline", "none", cfg), 0)

    def test_first_match_wins(self, cfg):
        plan = FaultPlan.of(
            FaultSpec("treeadd", kind="transient", times=1),
            FaultSpec("*", kind="transient", times=9),
        )
        spec = RunSpec.make("treeadd", "baseline", "none", cfg)
        assert not plan.fires(spec, 1)     # first rule exhausted
        assert plan.fires(RunSpec.make("power", "baseline", "none", cfg), 5)

    def test_corrupt_matched_separately(self, cfg):
        plan = FaultPlan.of(FaultSpec("treeadd", kind="corrupt"))
        spec = RunSpec.make("treeadd", "baseline", "none", cfg)
        assert plan.corrupts(spec) and not plan.fires(spec, 0)

    def test_apply_raises_transient(self, cfg):
        plan = FaultPlan.of(FaultSpec("treeadd", kind="transient"))
        with pytest.raises(TransientFault):
            plan.apply(RunSpec.make("treeadd", "baseline", "none", cfg), 0)
        # Exhausted rule: a no-op.
        plan.apply(RunSpec.make("treeadd", "baseline", "none", cfg), 1)


# ----------------------------------------------------------------------
# Retry: transient failures heal, rows stay bit-identical
# ----------------------------------------------------------------------

class TestTransientRetry:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rows_identical_after_transient_blips(self, cfg, clean_rows, jobs):
        faults = FaultPlan.of(
            FaultSpec("treeadd", engine="hardware", kind="transient", times=2),
            FaultSpec("power", variant="sw:*", engine="software",
                      kind="transient", times=1),
        )
        ex = make_executor(jobs=jobs, retries=2, faults=faults)
        assert faulty_figure5(cfg, ex) == clean_rows
        stats = ex.stats()
        # treeadd/hardware timing cell twice + power sw timing cell once.
        assert stats["retries"] == 3
        assert stats["faults_injected"] == 3
        assert stats["failures"] == 0
        assert stats["executed"] == PAIR_CELLS + 3

    def test_exhausted_retries_preserve_error_row(self, cfg, clean_rows):
        faults = FaultPlan.of(
            FaultSpec("power", engine="dbp", kind="transient", times=5),
        )
        ex = make_executor(retries=1, faults=faults)
        rows = faulty_figure5(cfg, ex)
        bad = [r for r in rows if r.get("error")]
        assert len(bad) == 1 and bad[0]["benchmark"] == "power"
        assert bad[0]["scheme"] == "dbp"
        assert bad[0]["error_kind"] == "TransientFault"
        assert "injected transient failure" in bad[0]["error_detail"]
        good = [r for r in rows if not r.get("error")]
        assert good == [r for r in clean_rows
                        if not (r["benchmark"] == "power" and r["scheme"] == "dbp")]
        assert ex.stats()["failures"] == 1
        assert ex.stats()["retries"] == 1

    def test_backoff_is_exponential(self, cfg):
        delays = []
        faults = FaultPlan.of(
            FaultSpec("treeadd", engine="hardware", kind="transient", times=3),
        )
        ex = SweepExecutor(retries=3, backoff=0.25, faults=faults,
                           sleep=delays.append, registry=MetricRegistry())
        plan = SweepPlan(cfg)
        plan.add(RunSpec.make("treeadd", "baseline", "hardware", cfg,
                              SMALL["treeadd"]))
        plan.execute(executor=ex)
        assert delays == [0.25, 0.5, 1.0]


# ----------------------------------------------------------------------
# Crash: worker death, pool rebuild
# ----------------------------------------------------------------------

class TestCrashRecovery:
    def test_serial_crash_retries_to_identical_rows(self, cfg, clean_rows):
        faults = FaultPlan.of(
            FaultSpec("treeadd", engine="cooperative", kind="crash", times=1),
        )
        ex = make_executor(retries=1, faults=faults)
        assert faulty_figure5(cfg, ex) == clean_rows
        assert ex.stats()["retries"] == 1
        assert ex.stats()["pool_breaks"] == 0   # in-process: no pool involved

    def test_pooled_crash_rebuilds_pool(self, cfg, clean_rows):
        faults = FaultPlan.of(
            FaultSpec("treeadd", engine="cooperative", kind="crash", times=1),
        )
        # A dying worker fails every in-flight cell of its pool: give the
        # innocent bystanders retry budget too.
        ex = make_executor(jobs=2, retries=3, faults=faults)
        assert faulty_figure5(cfg, ex) == clean_rows
        stats = ex.stats()
        assert stats["pool_breaks"] >= 1
        assert stats["retries"] >= 1
        assert stats["failures"] == 0

    def test_pooled_crash_without_retries_yields_error_rows(self, cfg):
        faults = FaultPlan.of(
            FaultSpec("treeadd", engine="cooperative", kind="crash", times=1),
        )
        ex = make_executor(jobs=2, retries=0, faults=faults)
        rows = faulty_figure5(cfg, ex)
        bad = [r for r in rows if r.get("error")]
        assert bad, "the crash must surface as at least one error row"
        assert any(r["error_kind"] == "BrokenProcessPool" for r in bad)
        assert ex.stats()["failures"] >= 1


# ----------------------------------------------------------------------
# Hang: wall-clock timeout, hung-worker reaping
# ----------------------------------------------------------------------

class TestHangTimeout:
    def test_serial_overrun_is_charged_and_retried(self, cfg, clean_rows):
        # Serial execution cannot preempt: the cell completes after its
        # injected 1.2s nap and is then charged a timeout attempt.
        faults = FaultPlan.of(
            FaultSpec("power", engine="dbp", kind="hang", times=1, seconds=1.2),
        )
        ex = make_executor(retries=1, timeout=0.6, faults=faults)
        assert faulty_figure5(cfg, ex) == clean_rows
        assert ex.stats()["timeouts"] == 1
        assert ex.stats()["retries"] == 1

    def test_pooled_hang_is_reaped_before_it_finishes(self, cfg, clean_rows):
        # Pooled execution must NOT wait out the 120s nap: the deadline
        # reaps the hung worker and a fresh pool retries the cell.
        faults = FaultPlan.of(
            FaultSpec("power", engine="dbp", kind="hang", times=1,
                      seconds=120.0),
        )
        ex = make_executor(jobs=2, retries=1, timeout=2.0, faults=faults)
        start = time.monotonic()
        rows = faulty_figure5(cfg, ex)
        elapsed = time.monotonic() - start
        assert rows == clean_rows
        assert elapsed < 60.0, f"hung worker was waited out ({elapsed:.0f}s)"
        stats = ex.stats()
        assert stats["timeouts"] == 1
        assert stats["pool_breaks"] >= 1
        assert stats["failures"] == 0

    def test_timeout_exhaustion_becomes_error_row(self, cfg):
        faults = FaultPlan.of(
            FaultSpec("power", engine="dbp", kind="hang", times=3,
                      seconds=120.0),
        )
        ex = make_executor(jobs=2, retries=1, timeout=1.0, faults=faults)
        rows = faulty_figure5(cfg, ex)
        bad = [r for r in rows if r.get("error")]
        assert len(bad) == 1
        assert bad[0]["error_kind"] == "TimeoutError"
        assert "exceeded --timeout" in bad[0]["error_detail"]
        assert ex.stats()["timeouts"] == 2    # first try + one retry


# ----------------------------------------------------------------------
# Corrupt cache entries: detected, recomputed, re-stored
# ----------------------------------------------------------------------

class TestCorruptCacheEntry:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_corrupt_entry_recomputes(self, cfg, clean_rows, tmp_path, jobs):
        from repro.harness import ResultCache

        cache = ResultCache(tmp_path / "cache", registry=MetricRegistry())
        warm = make_executor(cache=cache)
        assert faulty_figure5(cfg, warm) == clean_rows
        writes_before = cache.stats()["writes"]
        assert writes_before == PAIR_CELLS

        faults = FaultPlan.of(
            FaultSpec("treeadd", "baseline", "hardware", kind="corrupt"),
        )
        ex = make_executor(jobs=jobs, cache=cache, faults=faults)
        assert faulty_figure5(cfg, ex) == clean_rows
        stats = cache.stats()
        assert stats["invalid"] == 1                  # clobber detected
        assert stats["writes"] == writes_before + 1   # fresh result re-stored
        assert ex.stats()["faults_injected"] == 1
        assert ex.stats()["executed"] == 1            # only the victim reran


# ----------------------------------------------------------------------
# Error metadata
# ----------------------------------------------------------------------

class TestErrorKinds:
    def test_cell_error_kind_matches_exception_class(self, cfg):
        specs = [RunSpec.make("treeadd", "baseline", "no-such-engine", cfg,
                              SMALL["treeadd"])]
        cells = make_executor().execute(specs)
        cell = cells[specs[0]]
        assert cell.error_kind == "ConfigError"
        assert "no-such-engine" in cell.error

    def test_sweep_results_error_carries_kind(self, cfg):
        plan = SweepPlan(cfg)
        bad = plan.add(RunSpec.make("treeadd", "baseline", "no-such-engine",
                                    cfg, SMALL["treeadd"]))
        results = plan.execute(executor=make_executor())
        err = results.error(bad)
        assert err is not None and err.kind == "ConfigError"
        assert "no-such-engine" in err    # still a usable string

    def test_error_rows_greppable_by_kind(self, cfg):
        faults = FaultPlan.of(FaultSpec("power", engine="dbp",
                                        kind="transient", times=9))
        rows = faulty_figure5(cfg, make_executor(faults=faults))
        kinds = {r["error_kind"] for r in rows if r.get("error")}
        assert kinds == {"TransientFault"}


# ----------------------------------------------------------------------
# Interruption: clean pool shutdown, journal survival
# ----------------------------------------------------------------------

class _InterruptAfter:
    """Progress hook that raises KeyboardInterrupt after N narrations."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.seen = 0

    def __call__(self, line: str) -> None:
        self.seen += 1
        if self.seen >= self.n:
            raise KeyboardInterrupt


class TestKeyboardInterrupt:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_interrupt_propagates(self, cfg, jobs):
        ex = make_executor(jobs=jobs, progress=_InterruptAfter(3))
        with pytest.raises(KeyboardInterrupt):
            faulty_figure5(cfg, ex)

    def test_pooled_interrupt_leaves_no_orphan_workers(self, cfg):
        ex = make_executor(jobs=2, progress=_InterruptAfter(2))
        with pytest.raises(KeyboardInterrupt):
            faulty_figure5(cfg, ex)
        # _abandon_pool terminated and joined the workers; give a slow
        # box a moment to reap before declaring orphans.
        deadline = time.monotonic() + 5.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert multiprocessing.active_children() == []


class TestJournalResume:
    def _interrupted_run(self, cfg, tmp_path, n, jobs=1):
        registry = MetricRegistry()
        journal = SweepJournal(tmp_path / "sweep.jsonl", registry=registry)
        ex = make_executor(jobs=jobs, journal=journal, registry=registry,
                           progress=_InterruptAfter(n))
        with pytest.raises(KeyboardInterrupt):
            faulty_figure5(cfg, ex)
        journal.close()
        return journal

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_resume_replays_and_completes(self, cfg, clean_rows, tmp_path, jobs):
        interrupted = self._interrupted_run(cfg, tmp_path, n=8, jobs=jobs)
        checkpointed = len(interrupted)
        assert 0 < checkpointed < PAIR_CELLS

        registry = MetricRegistry()
        journal = SweepJournal(tmp_path / "sweep.jsonl", registry=registry,
                               resume=True)
        ex = make_executor(jobs=jobs, journal=journal, registry=registry)
        rows = faulty_figure5(cfg, ex)
        assert rows == clean_rows
        # Every checkpointed cell replays; only the remainder re-simulates.
        assert journal.replayed == checkpointed
        assert ex.stats()["executed"] == PAIR_CELLS - checkpointed
        assert len(journal) == PAIR_CELLS

    def test_without_resume_flag_journal_restarts(self, cfg, tmp_path):
        interrupted = self._interrupted_run(cfg, tmp_path, n=4)
        assert len(interrupted) > 0
        registry = MetricRegistry()
        fresh = SweepJournal(tmp_path / "sweep.jsonl", registry=registry,
                             resume=False)
        assert len(fresh) == 0
        assert not (tmp_path / "sweep.jsonl").exists()

    def test_truncated_tail_line_is_skipped(self, cfg, clean_rows, tmp_path):
        self._interrupted_run(cfg, tmp_path, n=6)
        path = tmp_path / "sweep.jsonl"
        lines = path.read_text().splitlines()
        # Simulate a hard kill mid-append: chop the last line in half.
        path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2])
        registry = MetricRegistry()
        journal = SweepJournal(path, registry=registry, resume=True)
        assert journal.stats()["corrupt"] == 1
        assert len(journal) == len(lines) - 1
        ex = make_executor(journal=journal, registry=registry)
        assert faulty_figure5(cfg, ex) == clean_rows

    def test_foreign_schema_lines_are_skipped(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        path.write_text(json.dumps({"schema": "repro.other/1", "key": "k",
                                    "kind": "sim", "result": {}}) + "\n")
        journal = SweepJournal(path, resume=True)
        assert len(journal) == 0
        assert journal.stats()["corrupt"] == 1

    def test_journal_roundtrips_both_cell_kinds(self, cfg, tmp_path):
        from repro.harness import table1

        registry = MetricRegistry()
        journal = SweepJournal(tmp_path / "t1.jsonl", registry=registry)
        ex = make_executor(journal=journal, registry=registry)
        rows = table1(cfg, benchmarks=("treeadd",),
                      params={"treeadd": SMALL["treeadd"]}, executor=ex)
        journal.close()

        registry2 = MetricRegistry()
        journal2 = SweepJournal(tmp_path / "t1.jsonl", registry=registry2,
                                resume=True)
        ex2 = make_executor(journal=journal2, registry=registry2)
        rows2 = table1(cfg, benchmarks=("treeadd",),
                       params={"treeadd": SMALL["treeadd"]}, executor=ex2)
        assert rows2 == rows
        assert ex2.stats()["executed"] == 0       # fully replayed
        assert journal2.replayed == 1

    def test_journal_lines_are_schema_stamped(self, cfg, tmp_path):
        registry = MetricRegistry()
        journal = SweepJournal(tmp_path / "s.jsonl", registry=registry)
        ex = make_executor(journal=journal, registry=registry)
        plan = SweepPlan(cfg)
        spec = plan.add(RunSpec.make("treeadd", "baseline", "none", cfg,
                                     SMALL["treeadd"]))
        plan.execute(executor=ex)
        journal.close()
        (line,) = (tmp_path / "s.jsonl").read_text().splitlines()
        doc = json.loads(line)
        assert doc["schema"] == JOURNAL_SCHEMA
        assert doc["key"] == spec_key(spec)
        assert doc["kind"] == "sim"
        assert doc["result"]["cycles"] > 0


# ----------------------------------------------------------------------
# The acceptance drill: mixed faults, one sweep, bit-identical rows
# ----------------------------------------------------------------------

class TestMixedFaultAcceptance:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_crash_hang_and_transients_all_heal(self, cfg, clean_rows, jobs):
        faults = FaultPlan.of(
            FaultSpec("treeadd", "baseline", "hardware", kind="crash", times=1),
            FaultSpec("power", "baseline", "dbp", kind="hang", times=1,
                      seconds=1.2 if jobs == 1 else 120.0),
            FaultSpec("treeadd", "sw:*", "software", kind="transient", times=1),
            FaultSpec("power", "coop:*", "cooperative", kind="transient",
                      times=1),
        )
        ex = make_executor(jobs=jobs, retries=3, timeout=0.6 if jobs == 1 else 5.0,
                           faults=faults)
        assert faulty_figure5(cfg, ex) == clean_rows
        stats = ex.stats()
        assert stats["failures"] == 0
        assert stats["timeouts"] >= 1
        assert stats["retries"] >= 3
        assert stats["faults_injected"] >= 3


# ----------------------------------------------------------------------
# Cache durability: the atomic rename must also be durable
# ----------------------------------------------------------------------

class TestCacheDurability:
    """``ResultCache.put`` must fsync the data file before the rename and
    the parent directory after it — otherwise a crash right after put()
    returns can roll the entry back (or leave a torn file) even though
    the caller was told the write succeeded."""

    def _spec_and_result(self, cfg):
        from repro.cpu.simulator import simulate
        from repro.harness import RunSpec
        from repro.workloads import get_workload

        w = get_workload("treeadd", **SMALL["treeadd"])
        spec = RunSpec.make("treeadd", "baseline", "none", cfg, SMALL["treeadd"])
        result = simulate(w.build("baseline").program, cfg, engine="none")
        return spec, result

    def test_put_fsyncs_file_then_directory(self, cfg, tmp_path, monkeypatch):
        import os as os_mod

        from repro.harness import ResultCache

        synced = []
        real_fsync = os_mod.fsync

        def recording_fsync(fd):
            st = os_mod.fstat(fd)
            import stat as stat_mod
            synced.append("dir" if stat_mod.S_ISDIR(st.st_mode) else "file")
            return real_fsync(fd)

        monkeypatch.setattr("repro.harness.cache.os.fsync", recording_fsync)
        cache = ResultCache(tmp_path / "cache", registry=MetricRegistry())
        spec, result = self._spec_and_result(cfg)
        path = cache.put(spec, result)
        assert path.exists()
        assert "file" in synced and "dir" in synced
        assert synced.index("file") < synced.index("dir")
        # and the entry reads back verbatim
        assert cache.get(spec) is not None

    def test_put_survives_unfsyncable_directory(self, cfg, tmp_path,
                                                monkeypatch):
        # Filesystems that refuse directory fsync must not break put().
        import errno
        import os as os_mod
        import stat as stat_mod

        from repro.harness import ResultCache

        real_fsync = os_mod.fsync

        def picky_fsync(fd):
            if stat_mod.S_ISDIR(os_mod.fstat(fd).st_mode):
                raise OSError(errno.EINVAL, "directory fsync unsupported")
            return real_fsync(fd)

        monkeypatch.setattr("repro.harness.cache.os.fsync", picky_fsync)
        cache = ResultCache(tmp_path / "cache", registry=MetricRegistry())
        spec, result = self._spec_and_result(cfg)
        assert cache.put(spec, result).exists()
        assert cache.get(spec) is not None

    def test_failed_write_leaves_no_temp_file(self, cfg, tmp_path,
                                              monkeypatch):
        from repro.harness import ResultCache

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("repro.harness.cache.os.replace", boom)
        cache = ResultCache(tmp_path / "cache", registry=MetricRegistry())
        spec, result = self._spec_and_result(cfg)
        with pytest.raises(OSError):
            cache.put(spec, result)
        leftovers = [p for p in (tmp_path / "cache").rglob("*")
                     if p.is_file()]
        assert leftovers == []  # tmp file cleaned up, nothing torn
