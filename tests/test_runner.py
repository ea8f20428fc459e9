"""Scheme runs: scheme mapping and decompositions."""

import pytest

from repro import WorkloadError, get_workload, small_config
from repro.harness import SCHEMES, SweepPlan, scheme_plan
from repro.workloads import workload_class

TREEADD = workload_class("treeadd").test_params()


@pytest.fixture(scope="module")
def matrix():
    """treeadd's five scheme runs from one plan."""
    plan = SweepPlan(small_config())
    handles = {s: plan.add_run("treeadd", s, TREEADD) for s in SCHEMES}
    results = plan.execute()
    return {s: results.scheme_run(h) for s, h in handles.items()}


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


class TestSchemeRuns:
    def test_base_run_decomposition(self, matrix):
        run = matrix["base"]
        assert run.scheme == "base"
        assert run.total > run.compute > 0
        assert run.memory == run.total - run.compute
        assert run.normalized(run.total) == 1.0

    def test_memory_reduction_sign(self, matrix):
        r = matrix["software"].memory_reduction(matrix["base"].memory)
        assert -2.0 < r <= 1.0

    def test_compute_cache_reused(self, matrix):
        # base and dbp run the same baseline program: one compute cell.
        plan = SweepPlan(small_config())
        base = plan.add_run("treeadd", "base", TREEADD)
        dbp = plan.add_run("treeadd", "dbp", TREEADD)
        assert base.compute == dbp.compute
        assert len(plan.cells()) == 3
        assert matrix["base"].compute == matrix["dbp"].compute

    def test_all_schemes_run(self, matrix):
        assert list(matrix) == list(SCHEMES)
        for run in matrix.values():
            assert run.total > 0

    def test_run_variant_direct(self):
        plan = SweepPlan(small_config())
        handle = plan.add_variant_run("treeadd", "coop:queue", "cooperative",
                                      TREEADD)
        run = plan.execute().scheme_run(handle)
        assert run.variant == "coop:queue"
        assert run.total > 0


def test_run_scheme_oneshot():
    plan = SweepPlan(small_config())
    handle = plan.add_run("power", "base", workload_class("power").test_params())
    run = plan.execute().scheme_run(handle)
    assert run.benchmark == "power"
    assert run.total > 0
