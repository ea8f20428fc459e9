"""On-disk result cache: keying, round-trips, corruption, counters,
durability, and resuming an interrupted sweep by rerunning it."""

import ast
import json
from pathlib import Path

import pytest

import repro
from repro import small_config
from repro.harness import (
    ResultCache,
    RunSpec,
    SweepExecutor,
    SweepPlan,
    code_fingerprint,
    run_spec,
    simulate_cell,
    spec_key,
)
from repro.harness.cache import _FINGERPRINT_MODULES, _FINGERPRINT_PACKAGES
from repro.obs import MetricRegistry
from repro.workloads import workload_class
from tests.conftest import InterruptAfter, shipped_spec

TREEADD = workload_class("treeadd").test_params()

PAIR = ("treeadd", "power")
PAIR_SMALL = {name: workload_class(name).test_params() for name in PAIR}
#: 2 benchmarks x (5 timing + 3 distinct compute) cells.
PAIR_CELLS = 16


def figure5_pair(cfg, executor):
    return run_spec(shipped_spec("figure5", PAIR).with_machine("small"),
                    executor=executor)


def table1_pair(cfg, executor):
    return run_spec(shipped_spec("table1", PAIR).with_machine("small"),
                    executor=executor)


@pytest.fixture(scope="module")
def cfg():
    return small_config()


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestKeying:
    def test_fingerprint_is_stable_sha256(self):
        fp = code_fingerprint()
        assert fp == code_fingerprint()
        assert len(fp) == 64 and int(fp, 16) >= 0

    def test_fingerprint_covers_its_own_imports(self):
        """Every relative import of a fingerprinted module resolves to a
        fingerprinted package or module, so no code that decides a cached
        result can change without changing the key."""
        root = Path(repro.__file__).resolve().parent
        covered = set(_FINGERPRINT_PACKAGES) | {
            m.removesuffix(".py") for m in _FINGERPRINT_MODULES
        }
        files = [root / m for m in _FINGERPRINT_MODULES]
        for pkg in _FINGERPRINT_PACKAGES:
            files.extend((root / pkg).rglob("*.py"))
        escapes = []
        for path in files:
            here = path.relative_to(root).parent.parts
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.ImportFrom) or not node.level:
                    continue
                base = here[:len(here) - (node.level - 1)]
                target = base + (tuple(node.module.split("."))
                                 if node.module else ())
                if not target or target[0] not in covered:
                    escapes.append(f"{path.relative_to(root)}: "
                                   f"{'.' * node.level}{node.module or ''}")
        assert escapes == []

    def test_key_covers_every_input(self, cfg):
        base = RunSpec.make("treeadd", "baseline", "none", cfg, TREEADD)
        k = spec_key(base)
        assert k == spec_key(base)
        others = [
            RunSpec.make("power", "baseline", "none", cfg, TREEADD),
            RunSpec.make("treeadd", "sw:queue", "none", cfg, TREEADD),
            RunSpec.make("treeadd", "baseline", "dbp", cfg, TREEADD),
            RunSpec.make("treeadd", "baseline", "none", cfg.perfect(), TREEADD),
            RunSpec.make("treeadd", "baseline", "none", cfg,
                         {**TREEADD, "passes": 99}),
        ]
        keys = {k} | {spec_key(o) for o in others}
        assert len(keys) == len(others) + 1


class TestRoundTrip:
    def test_warm_run_reproduces_cold_scheme_runs(self, cfg, cache):
        def matrix():
            plan = SweepPlan(cfg)
            runs = [plan.add_run("treeadd", s, TREEADD)
                    for s in ("base", "software", "hardware")]
            results = plan.execute(SweepExecutor(cache=cache))
            return [results.scheme_run(sr) for sr in runs]

        cold = matrix()
        assert cache.hits == 0 and cache.writes > 0
        warm = matrix()
        assert cache.misses == cache.writes  # every miss was then stored
        assert cache.hits == cache.writes    # ...and served the re-run
        # SchemeRun and the nested SimResult are dataclasses: this is a
        # deep, field-by-field equality including all stats counters.
        assert warm == cold

    def test_figure5_rows_identical_cold_vs_warm(self, cfg, cache):
        spec = shipped_spec("figure5", ("treeadd",)).with_machine("small")
        cold = run_spec(spec, executor=SweepExecutor(cache=cache))
        assert run_spec(spec, executor=SweepExecutor(cache=cache)) == cold
        assert cache.hits > 0

    def test_miss_parallelism_survives_round_trip(self, cfg, cache):
        spec = RunSpec.make("em3d", "baseline", "none", cfg,
                            workload_class("em3d").test_params(),
                            telemetry=True)
        result = simulate_cell(spec)
        parallelism = result.telemetry["miss_parallelism"]
        assert parallelism > 1.0  # em3d overlaps some of its misses
        cache.put(spec, result)
        back = cache.get(spec)
        assert back.telemetry["miss_parallelism"] == parallelism
        assert back == result

    def test_miss_intervals_never_cached(self, cfg, cache):
        spec = RunSpec.make("treeadd", "baseline", "none", cfg, TREEADD,
                            telemetry=True)
        result = simulate_cell(spec)
        path = cache.put(spec, result)
        stored = path.read_text()
        for raw in ("miss_intervals", "miss_starts", "miss_ends"):
            assert raw not in stored
        back = cache.get(spec)
        assert back.cycles == result.cycles
        assert back.telemetry["miss_parallelism"] == (
            result.telemetry["miss_parallelism"])


class TestRobustness:
    def test_corrupt_entry_is_a_miss(self, cfg, cache):
        spec = RunSpec.make("treeadd", "baseline", "none", cfg, TREEADD)
        path = cache.path(cache.key(spec))
        path.parent.mkdir(parents=True)
        path.write_text("{ not json")
        assert cache.get(spec) is None
        assert cache.stats()["invalid"] == 0  # unreadable, not schema-bad

    def test_unreadable_entry_counts_and_logs(self, cfg, cache, caplog):
        # Corruption/permission failures must never masquerade as a
        # plain cold miss: the read_errors counter and a warning naming
        # the path are the corruption drill's evidence.
        spec = RunSpec.make("treeadd", "baseline", "none", cfg, TREEADD)
        path = cache.path(cache.key(spec))
        path.parent.mkdir(parents=True)
        path.write_text("{ truncated")
        with caplog.at_level("WARNING", logger="repro.harness.cache"):
            assert cache.get(spec) is None
        assert cache.read_errors == 1
        assert cache.stats()["read_errors"] == 1
        assert any(str(path) in rec.getMessage() for rec in caplog.records)

    def test_cold_miss_is_not_a_read_error(self, cfg, cache):
        spec = RunSpec.make("treeadd", "baseline", "none", cfg, TREEADD)
        assert cache.get(spec) is None
        assert cache.read_errors == 0
        assert cache.misses == 1

    def test_read_error_counter_in_registry(self, cfg, tmp_path):
        registry = MetricRegistry()
        cache = ResultCache(tmp_path, registry=registry)
        spec = RunSpec.make("treeadd", "baseline", "none", cfg, TREEADD)
        path = cache.path(cache.key(spec))
        path.parent.mkdir(parents=True)
        path.write_text("not even close")
        assert cache.get(spec) is None
        dump = registry.to_dict()
        assert dump["cache.read_errors"]["value"] == 1
        assert dump["cache.misses"]["value"] == 1

    def test_wrong_schema_is_invalid(self, cfg, cache):
        spec = RunSpec.make("treeadd", "baseline", "none", cfg, TREEADD)
        path = cache.path(cache.key(spec))
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"schema": "repro.other/1", "result": {}}))
        assert cache.get(spec) is None
        assert cache.stats()["invalid"] == 1

    def test_counters_in_registry(self, cfg, tmp_path):
        registry = MetricRegistry()
        cache = ResultCache(tmp_path, registry=registry)
        spec = RunSpec.make("treeadd", "baseline", "none", cfg, TREEADD)
        assert cache.get(spec) is None
        dump = registry.to_dict()
        assert dump["cache.misses"]["value"] == 1
        assert dump["cache.hits"]["value"] == 0


class TestCorruptCacheEntry:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_corrupt_entry_recomputes(self, cfg, tmp_path, jobs):
        cache = ResultCache(tmp_path / "cache", registry=MetricRegistry())
        clean = figure5_pair(cfg, SweepExecutor(cache=cache))
        writes_before = cache.writes
        assert writes_before == PAIR_CELLS

        victim = RunSpec.make("treeadd", "baseline", "hardware", cfg,
                              PAIR_SMALL["treeadd"])
        path = cache.path(cache.key(victim))
        assert path.exists()
        # Valid JSON with the right schema tag but a gutted body: trips
        # the invalid-entry detection, not just a read miss.
        path.write_text(
            '{"schema": "repro.sim_result/1", "result": {"corrupt": true}}'
        )
        ex = SweepExecutor(jobs=jobs, cache=cache, registry=MetricRegistry())
        assert figure5_pair(cfg, ex) == clean
        stats = cache.stats()
        assert stats["invalid"] == 1                  # clobber detected
        assert stats["writes"] == writes_before + 1   # fresh result re-stored
        assert ex.stats()["executed"] == 1            # only the victim reran


class TestInterruptedSweep:
    """Resuming is rerunning: an interrupted sweep rerun against the same
    cache executes exactly the cells the interrupted run did not store,
    for every shipped experiment shape."""

    @pytest.mark.parametrize("sweep,cells,jobs", [
        (figure5_pair, PAIR_CELLS, 1),
        (figure5_pair, PAIR_CELLS, 2),
        (table1_pair, 2 * len(PAIR), 1),
    ], ids=["figure5-1", "figure5-2", "table1-1"])
    def test_warm_rerun_executes_only_missing_cells(self, cfg, tmp_path,
                                                    sweep, cells, jobs):
        clean = sweep(cfg, SweepExecutor(jobs=jobs))
        root = tmp_path / "cache"
        cache = ResultCache(root)
        interrupted = SweepExecutor(jobs=jobs, cache=cache,
                                    progress=InterruptAfter(cells // 2))
        with pytest.raises(KeyboardInterrupt):
            sweep(cfg, interrupted)
        stored = cache.writes
        assert 0 < stored < cells

        rerun = SweepExecutor(jobs=jobs, cache=ResultCache(root))
        assert sweep(cfg, rerun) == clean
        assert rerun.stats()["executed"] == cells - stored

        warm = SweepExecutor(jobs=jobs, cache=ResultCache(root))
        assert sweep(cfg, warm) == clean
        assert warm.stats()["executed"] == 0


class TestCacheDurability:
    """``ResultCache.put`` must fsync the data file before the rename and
    the parent directory after it — otherwise a crash right after put()
    returns can roll the entry back (or leave a torn file) even though
    the caller was told the write succeeded."""

    def _spec_and_result(self, cfg):
        from repro.cpu.simulator import simulate
        from repro.workloads import get_workload

        w = get_workload("treeadd", **TREEADD)
        spec = RunSpec.make("treeadd", "baseline", "none", cfg, TREEADD)
        result = simulate(w.build("baseline").program, cfg, engine="none")
        return spec, result

    def test_put_fsyncs_file_then_directory(self, cfg, tmp_path, monkeypatch):
        import os as os_mod
        import stat as stat_mod

        synced = []
        real_fsync = os_mod.fsync

        def recording_fsync(fd):
            st = os_mod.fstat(fd)
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
