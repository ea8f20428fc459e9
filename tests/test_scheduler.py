"""Sweep executor: backend resolution, backend parity, pickled cells,
plan-order assembly.

The core guarantee is that *assembly is a function of the plan, not of
the backend*: whatever order results arrive in — serial or from a
process pool — the assembled tables are bit-identical.  The hypothesis
property here drives that directly by completing cells in arbitrary
interleavings.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import small_config
from repro.harness import (
    RunSpec,
    SweepExecutor,
    WorkerBackend,
    detect_cpus,
    figure5,
    run_cell,
)
from repro.harness.backends import ProcessPoolBackend, SerialBackend
from repro.harness.cache import spec_key
from repro.harness.cells import CellResult
from repro.workloads import workload_class
from tests.conftest import InterruptAfter

SMALL = {
    name: workload_class(name).test_params()
    for name in ("treeadd", "health", "power")
}


@pytest.fixture(scope="module")
def cfg():
    return small_config()


def _specs(cfg) -> list[RunSpec]:
    """Four distinct fast cells (two variants x two configs)."""
    return [
        RunSpec.make("treeadd", "baseline", "none", cfg, SMALL["treeadd"]),
        RunSpec.make("treeadd", "baseline", "none", cfg.perfect(),
                     SMALL["treeadd"]),
        RunSpec.make("treeadd", "sw:queue", "dbp", cfg, SMALL["treeadd"]),
        RunSpec.make("treeadd", "sw:queue", "none", cfg.perfect(),
                     SMALL["treeadd"]),
    ]


class TestBackendResolution:
    def test_implicit_serial_for_one_job(self):
        sched = SweepExecutor(jobs=1)
        assert isinstance(sched._resolve_backend([1, 2]), SerialBackend)

    def test_implicit_serial_for_trivial_plan(self):
        sched = SweepExecutor(jobs=4)
        assert isinstance(sched._resolve_backend([1]), SerialBackend)

    def test_implicit_process_pool(self):
        sched = SweepExecutor(jobs=4)
        assert isinstance(sched._resolve_backend([1, 2]), ProcessPoolBackend)

    def test_explicit_instance_wins(self):
        backend = SerialBackend()
        sched = SweepExecutor(jobs=4, backend=backend)
        assert sched._resolve_backend([1, 2]) is backend

    def test_jobs_zero_auto_detects(self):
        assert SweepExecutor(jobs=0).jobs == detect_cpus()

    def test_detect_cpus_positive(self):
        assert detect_cpus() >= 1


class TestPickledCells:
    def test_spec_survives_pickle_round_trip(self, cfg):
        """Pool workers receive each cell as the pickled RunSpec itself:
        a derived config and the observer flags must come back equal,
        hash equally, and address the same cache entry."""
        spec = RunSpec.make(
            "health", "baseline", "hardware",
            cfg.perfect().with_overrides({"memory_latency": 140,
                                          "prefetch.jump_interval": 4}),
            SMALL["health"], profile=True, telemetry=True,
        )
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec
        assert hash(back) == hash(spec)
        assert spec_key(back) == spec_key(spec)


class TestBackendParity:
    def test_two_backends_bit_identical(self, cfg):
        """The golden check: serial and process-pool execution of the
        same cells produce bit-identical full results."""
        specs = _specs(cfg)[:3]
        serial = SweepExecutor(jobs=1).execute(specs)
        pooled = SweepExecutor(jobs=2).execute(specs)
        for spec in specs:
            assert pooled[spec].ok
            assert pooled[spec].result.to_dict() == \
                serial[spec].result.to_dict()

    def test_worker_error_comes_back_as_error_cell(self, cfg):
        """An unknown engine fails inside a pool worker; the sweep
        returns an error cell for it instead of raising."""
        good = _specs(cfg)[0]
        bad = RunSpec.make("treeadd", "baseline", "no-such-engine", cfg,
                           SMALL["treeadd"])
        sched = SweepExecutor(jobs=2)
        assert isinstance(sched._resolve_backend([good, bad]),
                          ProcessPoolBackend)
        cells = sched.execute([good, bad])
        assert cells[good].ok
        assert not cells[bad].ok
        assert "no-such-engine" in cells[bad].error
        assert sched.stats()["failures"] == 1


class _ReplayBackend(WorkerBackend):
    """Completes precomputed cell outcomes in a chosen arrival order —
    the backend-side adversary for the assembly-determinism property."""

    def __init__(self, outs, order):
        self.outs = outs
        self.order = order

    def run(self, sched, todo, results, done, total):
        arrival = [todo[i] for i in self.order if i < len(todo)]
        arrival += [spec for spec in todo if spec not in arrival]
        for spec in arrival:
            sched._c_executed.inc()
            out = self.outs[spec]
            done += 1
            results[spec] = sched._finish(
                CellResult(spec, out[1]), done, total
            )
        return done


@pytest.fixture(scope="module")
def reference(cfg):
    """Serial ground truth: specs, their outcomes, and assembled rows."""
    specs = _specs(cfg)
    outs = {spec: run_cell(spec) for spec in specs}
    assert all(out[0] == "ok" for out in outs.values())
    return specs, outs


def _table(specs, cells) -> list:
    """Plan-order assembly, as every experiment/table consumer does it."""
    return [cells[spec].result.to_dict() for spec in specs]


class TestAssemblyDeterminism:
    def test_reversed_arrival_matches_serial(self, reference):
        specs, outs = reference
        serial = _table(specs, SweepExecutor().execute(specs))
        backend = _ReplayBackend(outs, list(range(len(specs)))[::-1])
        scrambled = SweepExecutor(backend=backend).execute(specs)
        assert _table(specs, scrambled) == serial

    @settings(max_examples=25, deadline=None)
    @given(order=st.permutations(range(4)))
    def test_any_arrival_interleaving_assembles_identically(
        self, reference, order
    ):
        specs, outs = reference
        expected = [outs[spec][1].to_dict() for spec in specs]
        cells = SweepExecutor(
            backend=_ReplayBackend(outs, list(order))
        ).execute(specs)
        assert list(cells) and _table(specs, cells) == expected

    def test_backend_losing_cells_is_caught(self, reference):
        specs, outs = reference

        class Lossy(_ReplayBackend):
            def run(self, sched, todo, results, done, total):
                return super().run(sched, todo[:2], results, done, total)

        cells = SweepExecutor(
            backend=Lossy(outs, [0, 1])
        ).execute(specs)
        # Every planned cell is accounted for: the two the backend
        # dropped come back as explicit BackendError cells, not KeyErrors.
        assert len(cells) == len(specs)
        lost = [c for c in cells.values() if not c.ok]
        assert len(lost) == 2
        assert all(c.error_kind == "BackendError" for c in lost)


class TestKeyboardInterrupt:
    @staticmethod
    def _pair(cfg, executor):
        return figure5(cfg, benchmarks=("treeadd", "power"), params=SMALL,
                       executor=executor)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_interrupt_propagates(self, cfg, jobs):
        ex = SweepExecutor(jobs=jobs, progress=InterruptAfter(3))
        with pytest.raises(KeyboardInterrupt):
            self._pair(cfg, ex)

    def test_pooled_interrupt_leaves_no_orphan_workers(self, cfg):
        ex = SweepExecutor(jobs=2, progress=InterruptAfter(2))
        with pytest.raises(KeyboardInterrupt):
            self._pair(cfg, ex)
        # _abandon_pool terminated and joined the workers; give a slow
        # box a moment to reap before declaring orphans.
        deadline = time.monotonic() + 5.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert multiprocessing.active_children() == []
