"""Experiment runner: scheme mapping and decompositions."""

import pytest

from repro import WorkloadError, get_workload
from repro.harness import SCHEMES, BenchmarkRunner, SweepPlan, scheme_plan
from repro.workloads import workload_class


@pytest.fixture(scope="module")
def runner(request):
    from repro import small_config

    return BenchmarkRunner(
        "treeadd", small_config(), workload_class("treeadd").test_params()
    )


class TestSchemePlan:
    def test_matrix(self):
        w = get_workload("health", **workload_class("health").test_params())
        assert scheme_plan(w, "base") == ("baseline", "none")
        assert scheme_plan(w, "hardware") == ("baseline", "hardware")
        assert scheme_plan(w, "dbp") == ("baseline", "dbp")
        assert scheme_plan(w, "software") == ("sw:chain", "software")
        assert scheme_plan(w, "cooperative") == ("coop:chain", "cooperative")

    def test_explicit_idiom(self):
        w = get_workload("health", **workload_class("health").test_params())
        assert scheme_plan(w, "software", idiom="root") == ("sw:root", "software")

    def test_missing_idiom_rejected(self):
        w = get_workload("treeadd", **workload_class("treeadd").test_params())
        with pytest.raises(WorkloadError):
            scheme_plan(w, "software", idiom="root")

    def test_unknown_scheme_rejected(self):
        w = get_workload("treeadd", **workload_class("treeadd").test_params())
        with pytest.raises(WorkloadError):
            scheme_plan(w, "quantum")


class TestBenchmarkRunner:
    def test_base_run_decomposition(self, runner):
        run = runner.run("base")
        assert run.scheme == "base"
        assert run.total > run.compute > 0
        assert run.memory == run.total - run.compute
        assert run.normalized(run.total) == 1.0

    def test_memory_reduction_sign(self, runner):
        base = runner.run("base")
        sw = runner.run("software")
        r = sw.memory_reduction(base.memory)
        assert -2.0 < r <= 1.0

    def test_compute_cache_reused(self, runner):
        r1 = runner.run("base")
        r2 = runner.run("dbp")
        assert r1.compute == r2.compute  # same baseline program

    def test_all_schemes_run(self, runner):
        matrix = {scheme: runner.run(scheme) for scheme in SCHEMES}
        assert set(matrix) == set(SCHEMES)
        for run in matrix.values():
            assert run.total > 0

    def test_run_variant_direct(self, runner):
        plan = SweepPlan(runner.cfg)
        handle = plan.add_variant_run("treeadd", "coop:queue", "cooperative",
                                      runner.workload.params)
        run = plan.execute().scheme_run(handle)
        assert run.variant == "coop:queue"
        assert run.total > 0


def test_run_scheme_oneshot():
    from repro import small_config

    run = BenchmarkRunner(
        "power", small_config(), workload_class("power").test_params()
    ).run("base")
    assert run.benchmark == "power"
    assert run.total > 0
