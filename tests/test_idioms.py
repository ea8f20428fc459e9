"""JPP framework: the Table-1 characterization."""

import pytest

from repro.workloads import workload_class, workload_names

from tests.conftest import shipped_spec

#: Table 1's columns, in the paper's order.
TABLE1_COLUMNS = ["benchmark", "insts", "loads", "%lds loads", "L1 miss%",
                  "%misses lds", "miss parallelism", "mem frac%",
                  "structure", "idioms"]


def table1_rows(*names):
    from repro.harness import run_spec

    return run_spec(shipped_spec("table1", names).with_machine("small"))


class TestCharacterization:
    def test_row_as_dict_keys(self):
        (row,) = table1_rows("health")
        assert list(row) == TABLE1_COLUMNS
        assert row["benchmark"] == "health"
        cls = workload_class("health")
        assert row["structure"] == cls.structure
        assert row["idioms"] == "/".join(cls.idioms)

    def test_characterize_small_workload(self):
        (row,) = table1_rows("treeadd")
        assert 0.0 <= row["%lds loads"] <= 100.0
        assert 0.0 <= row["L1 miss%"] <= 100.0
        assert 0.0 <= row["mem frac%"] < 100.0
        assert row["miss parallelism"] >= 0.0
        assert row["insts"] > 0
        # No idiom judged worth implementing prints as "-".
        (bisort,) = table1_rows("bisort")
        assert bisort["idioms"] == "-"


@pytest.mark.parametrize("name", workload_names())
def test_table1_idioms_are_implemented(name):
    # Table 1's idioms are the worth-implementing subset of the variants
    # (bisort, tsp and voronoi list none but still carry a queue variant).
    cls = workload_class(name)
    for idiom in cls.idioms:
        assert f"sw:{idiom}" in cls.variants
        assert f"coop:{idiom}" in cls.variants
