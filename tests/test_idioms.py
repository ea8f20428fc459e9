"""JPP framework: the Table-1 characterization."""

import pytest

from repro.core.characterization import CharacterizationRow
from repro.workloads import workload_class, workload_names


class TestCharacterization:
    def test_row_as_dict_keys(self):
        row = CharacterizationRow(
            name="x", instructions=10, loads=5, lds_load_fraction=0.5,
            l1d_miss_ratio=0.1, lds_miss_fraction=0.9, miss_parallelism=1.5,
            memory_fraction=0.6, structure="list", idioms=("queue",),
        )
        d = row.as_dict()
        assert d["benchmark"] == "x"
        assert d["%lds loads"] == 50.0
        assert d["idioms"] == "queue"

    def test_characterize_small_workload(self):
        from repro import get_workload, small_config
        from repro.core import characterize
        from repro.workloads import workload_class

        w = get_workload("treeadd", **workload_class("treeadd").test_params())
        built = w.build("baseline")
        row, result = characterize(
            "treeadd", built.program, small_config(),
            structure=w.structure, idioms=w.idioms,
        )
        assert 0.0 <= row.lds_load_fraction <= 1.0
        assert 0.0 <= row.l1d_miss_ratio <= 1.0
        assert 0.0 <= row.memory_fraction < 1.0
        assert row.miss_parallelism >= 0.0
        assert result.instructions == row.instructions


@pytest.mark.parametrize("name", workload_names())
def test_table1_idioms_are_implemented(name):
    # Table 1's idioms are the worth-implementing subset of the variants
    # (bisort, tsp and voronoi list none but still carry a queue variant).
    cls = workload_class(name)
    for idiom in cls.idioms:
        assert f"sw:{idiom}" in cls.variants
        assert f"coop:{idiom}" in cls.variants
