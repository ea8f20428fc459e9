"""Functional correctness of every Olden kernel in every variant.

Each workload builds its program, the interpreter runs it, and the result
is checked against the workload's Python mirror — so all prefetch variants
are proven semantics-preserving.
"""

import networkx as nx
import pytest

from repro import WorkloadError, get_workload, run_to_completion, workload_names
from repro.harness.schemes import scheme_plan
from repro.workloads import parse_variant, workload_class
from repro.workloads.registry import register

ALL = workload_names()


def _cases():
    for name in ALL:
        for variant in workload_class(name).variants:
            yield pytest.param(name, variant, id=f"{name}-{variant}")


@pytest.mark.parametrize("name,variant", list(_cases()))
def test_variant_functionally_correct(name, variant):
    w = get_workload(name, **workload_class(name).test_params())
    built = w.build(variant)
    interp = run_to_completion(built.program)
    built.verify(interp)


def test_all_ten_olden_programs_present():
    olden = {"bh", "bisort", "em3d", "health", "mst", "perimeter", "power",
             "treeadd", "tsp", "voronoi"}
    assert olden <= set(ALL)
    assert "spmv" in ALL  # the sparse-matrix extension workload


def test_unknown_variant_rejected():
    w = get_workload("treeadd", **workload_class("treeadd").test_params())
    with pytest.raises(WorkloadError):
        w.build("sw:root")


def test_unknown_workload_rejected():
    with pytest.raises(WorkloadError):
        get_workload("doesnotexist")


def test_duplicate_registration_rejected():
    cls = workload_class("treeadd")
    with pytest.raises(WorkloadError):
        register(cls)


def test_parse_variant():
    assert parse_variant("baseline") == ("baseline", None)
    assert parse_variant("sw:chain") == ("sw", "chain")
    assert parse_variant("coop:root") == ("coop", "root")
    with pytest.raises(WorkloadError):
        parse_variant("hw:chain")
    with pytest.raises(WorkloadError):
        parse_variant("sw:")


def test_best_variant_selection():
    w = get_workload("health", **workload_class("health").test_params())
    assert scheme_plan(w, "software") == ("sw:chain", "software")
    assert scheme_plan(w, "cooperative") == ("coop:chain", "cooperative")


class TestTreeadd:
    def test_sum_formula(self):
        from repro.workloads.olden.treeadd import TreeAdd

        w = TreeAdd(levels=5, passes=1, interval=4)
        built = w.build("baseline")
        assert built.expected["sum"] == 2**5 - 1


class TestMst:
    @pytest.mark.parametrize("n,buckets", [(8, 4), (12, 4), (16, 8)])
    def test_mirror_matches_networkx(self, n, buckets):
        from repro.workloads.olden.mst import edge_weight, mirror

        G = nx.Graph()
        for u in range(n):
            for v in range(u + 1, n):
                G.add_edge(u, v, weight=edge_weight(u, v))
        T = nx.minimum_spanning_tree(G)
        expected = sum(d["weight"] for __, __v, d in T.edges(data=True))
        assert mirror(n, buckets) == expected

    def test_weights_symmetric(self):
        from repro.workloads.olden.mst import edge_weight

        for u in range(10):
            for v in range(10):
                if u != v:
                    assert edge_weight(u, v) == edge_weight(v, u)
                    assert 1 <= edge_weight(u, v) <= 256


class TestHealth:
    def test_mirror_conserves_patients(self):
        from repro.workloads.olden.health import mirror, _num_hospitals

        total_time, discharged, checksum = mirror(3, 3, 4, 6)
        npatients = _num_hospitals(3, 3) * 4
        assert 0 <= discharged <= npatients
        assert total_time > 0
        assert checksum > 0

    def test_more_iterations_more_time(self):
        from repro.workloads.olden.health import mirror

        t1, __, __c = mirror(3, 3, 3, 2)
        t2, __, __c = mirror(3, 3, 3, 6)
        assert t2 > t1


class TestEm3d:
    def test_mirror_is_deterministic(self):
        from repro.workloads.olden.em3d import mirror

        assert mirror(16, 16, 2, 3) == mirror(16, 16, 2, 3)

    def test_values_change_with_iterations(self):
        from repro.workloads.olden.em3d import mirror

        assert mirror(16, 16, 2, 1) != mirror(16, 16, 2, 5)


class TestBisort:
    def test_value_multiset_preserved(self):
        """The compare-exchange only swaps values: the total is invariant."""
        from repro.workloads.olden.bisort import mirror

        __, total_a = mirror(5, 1)
        __, total_b = mirror(5, 4)
        assert total_a == total_b


class TestTsp:
    def test_tour_length_positive_and_bounded(self):
        from repro.workloads.olden.tsp import mirror

        length = mirror(16)
        # 16 unit-square hops: bounded by n * sqrt(2)
        assert 0 < length < 16 * 1.4143


class TestVoronoi:
    def test_window_approximation_upper_bounds_true_closest_pair(self):
        from repro.workloads.olden.voronoi import _points, mirror

        n = 24
        pts = _points(n)
        true_best = min(
            (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2
            for i, a in enumerate(pts)
            for b in pts[i + 1:]
        )
        assert mirror(n) >= true_best


class TestPerimeter:
    def test_perimeter_counts_black_leaves(self):
        from repro.workloads.olden.perimeter import mirror

        perim, count = mirror(3)
        assert perim >= 0
        assert count >= 1
