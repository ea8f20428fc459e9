"""The declarative experiment-spec layer: parsing, validation, dict
round-trips, compilation onto the sweep machinery, and warm-cache
reruns.  The shipped spec files are the paper's experiments."""

import json

import pytest

from repro import small_config
from repro.harness import (
    Axis,
    ExperimentSpec,
    SpecError,
    SweepExecutor,
    ResultCache,
    WorkloadSel,
    compile_spec,
    load_spec,
    run_spec,
    spec_artifact,
)
from repro.workloads import workload_class

from tests.conftest import SPEC_DIR, shipped_spec

REPO = SPEC_DIR.parents[1]
#: Every shipped spec file, as a repo-relative path.
SPEC_FILES = sorted(str(p.relative_to(REPO)) for p in SPEC_DIR.glob("*.toml"))
#: treeadd at its quick test size.
TREEADD = workload_class("treeadd").test_params()


# ----------------------------------------------------------------------
# Parsing and round-trips
# ----------------------------------------------------------------------

class TestSpecFiles:
    @pytest.mark.parametrize("path", SPEC_FILES)
    def test_shipped_file_dict_round_trip(self, path):
        spec = load_spec(REPO / path)
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        # ... and the dict form survives JSON.
        blob = json.dumps(spec.to_dict(), sort_keys=True)
        assert ExperimentSpec.from_dict(json.loads(blob)) == spec

    @pytest.mark.parametrize("path", SPEC_FILES)
    def test_shipped_file_compiles_on_small(self, path):
        spec = load_spec(REPO / path).with_machine("small").small()
        compiled = compile_spec(spec)
        assert compiled.rows and compiled.cell_count > 0

    def test_json_spec_loads(self, tmp_path):
        spec = load_spec(SPEC_DIR / "figure7.toml")
        path = tmp_path / "f7.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert load_spec(path) == spec

    def test_unknown_extension_rejected(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("name: nope")
        with pytest.raises(SpecError, match="yaml"):
            load_spec(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(SpecError, match="invalid JSON"):
            load_spec(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read spec"):
            load_spec(tmp_path / "nope.json")


class TestSpecValidation:
    def test_unknown_spec_key(self):
        with pytest.raises(SpecError, match="workflows"):
            ExperimentSpec.from_dict({
                "name": "x", "workflows": [],
                "workloads": ["health"], "columns": ["benchmark", "scheme"],
            })

    def test_unknown_kind(self):
        # Every spec is a scheme matrix: a `kind` key is rejected, not
        # silently ignored.
        with pytest.raises(SpecError, match="'kind'"):
            ExperimentSpec.from_dict({
                "name": "x", "kind": "table1", "workloads": ["health"],
                "schemes": ["base"], "columns": ["benchmark", "insts"],
            })

    def test_no_workloads(self):
        with pytest.raises(SpecError, match="no workloads"):
            ExperimentSpec(name="x", columns=("benchmark",))

    def test_matrix_needs_columns(self):
        with pytest.raises(SpecError, match="columns"):
            ExperimentSpec(name="x", workloads=(WorkloadSel("health"),))

    def test_unknown_column(self):
        with pytest.raises(SpecError, match="karma"):
            ExperimentSpec(name="x", workloads=(WorkloadSel("health"),),
                           columns=("benchmark", "karma"))

    def test_axis_name_is_a_valid_column(self):
        spec = ExperimentSpec(
            name="x", workloads=(WorkloadSel("health"),),
            axes=(Axis("lat", (1, 2), ("machine.memory_latency",)),),
            columns=("lat", "benchmark", "scheme", "total"),
        )
        assert "lat" in spec.columns

    def test_duplicate_axis_rejected(self):
        with pytest.raises(SpecError, match="duplicate axis"):
            ExperimentSpec(
                name="x", workloads=(WorkloadSel("health"),),
                axes=(Axis("a", (1,), ("machine.memory_latency",)),
                      Axis("a", (2,), ("machine.memory_latency",))),
                columns=("benchmark", "scheme"),
            )

    def test_axis_needs_values_and_targets(self):
        with pytest.raises(SpecError, match="no values"):
            Axis("a", (), ("machine.memory_latency",))
        with pytest.raises(SpecError, match="no paths"):
            Axis("a", (1,), ())
        with pytest.raises(SpecError, match="must start"):
            Axis("a", (1,), ("memory_latency",))

    def test_workload_idiom_conflict(self):
        with pytest.raises(SpecError, match="one or the other"):
            WorkloadSel("health", idiom="queue", idioms=("queue",))

    def test_workload_unknown_impl(self):
        # An idiom grid runs every idiom-selecting scheme of the
        # registry; there is no per-workload implementation list.
        with pytest.raises(SpecError, match=r"unknown workload key.*'impls'"):
            WorkloadSel.parse({"name": "health", "idioms": ["queue"],
                               "impls": ["sw"]})

    def test_workload_entry_unknown_key(self):
        with pytest.raises(SpecError, match="idiots"):
            WorkloadSel.parse({"name": "health", "idiots": ["queue"]})

    def test_unknown_machine_at_compile(self):
        spec = ExperimentSpec(name="x", machine="cray",
                              workloads=(WorkloadSel("health"),),
                              columns=("benchmark", "scheme"))
        with pytest.raises(Exception, match="cray"):
            compile_spec(spec)

    def test_unknown_scheme_at_compile(self):
        spec = ExperimentSpec(name="x", workloads=(WorkloadSel("health"),),
                              schemes=("base", "quantum"),
                              columns=("benchmark", "scheme"))
        with pytest.raises(Exception, match="quantum"):
            compile_spec(spec)

    def test_bad_override_path_at_compile(self):
        spec = ExperimentSpec(name="x", workloads=(WorkloadSel("health"),),
                              overrides={"warp.factor": 9},
                              columns=("benchmark", "scheme"))
        with pytest.raises(Exception, match="warp"):
            compile_spec(spec)

    def test_with_machine_rejects_unknown(self):
        with pytest.raises(SpecError, match="cray"):
            load_spec(SPEC_DIR / "figure5.toml").with_machine("cray")

    @pytest.mark.parametrize("where,key,value", [
        ("spec", "telemetry", "false"),
        ("spec", "profile", "no"),
        ("spec", "workloads", "treeadd"),
        ("spec", "schemes", "base"),
        ("spec", "columns", "benchmark"),
        ("spec", "axes", {"name": "lat", "values": [70],
                          "set": ["machine.memory_latency"]}),
        ("spec", "overrides", [["memory_latency", 140]]),
        ("spec", "name", 5),
        ("spec", "title", 5),
        ("spec", "machine", 1),
        ("spec", "label_key", 1),
        ("axis", "values", 70),
        ("axis", "set", "machine.memory_latency"),
        ("workload", "params", "levels=3"),
        ("workload", "idioms", "queue"),
    ])
    def test_wrongly_typed_value_rejected(self, where, key, value):
        doc = {
            "name": "t",
            "workloads": [{"name": "treeadd"}],
            "schemes": ["base"],
            "columns": ["benchmark", "total"],
            "axes": [{"name": "lat", "values": [70],
                      "set": ["machine.memory_latency"]}],
        }
        target = {"spec": doc, "axis": doc["axes"][0],
                  "workload": doc["workloads"][0]}[where]
        target[key] = value
        with pytest.raises(SpecError, match=f"key '{key}' must be"):
            ExperimentSpec.from_dict(doc)


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------

class TestCompile:
    def test_dedup_shares_cells(self):
        # 5 schemes -> 5 timing cells but only 3 distinct program
        # variants' compute cells per kernel; base/hardware/dbp share
        # "baseline".  The three-kernel plan is the 24-cell sweep.
        for benchmarks, cells in ((("treeadd",), 5 + 3),
                                  (("treeadd", "em3d", "health"), 24)):
            spec = shipped_spec("figure5", benchmarks)
            compiled = compile_spec(spec.with_machine("small"))
            assert compiled.cell_count == cells

    def test_axes_cross_product_order(self):
        spec = shipped_spec("figure7")
        compiled = compile_spec(spec.with_machine("small"))
        points = [(r.axis["latency"], r.axis["interval"])
                  for r in compiled.rows]
        # first axis outermost, 5 scheme rows per point
        assert points[0] == (70, 8) and points[5] == (70, 16)
        assert points[10] == (280, 8) and points[15] == (280, 16)

    def test_overrides_apply_to_machine(self):
        spec = ExperimentSpec(
            name="x", workloads=(WorkloadSel("health"),),
            overrides={"memory_latency": 123},
            columns=("benchmark", "scheme"),
        )
        compiled = compile_spec(spec.with_machine("small"))
        assert compiled.plan.cfg.memory_latency == 123


# ----------------------------------------------------------------------
# Caching: a warm rerun performs zero simulations
# ----------------------------------------------------------------------

class TestWarmCache:
    def test_warm_rerun_executes_nothing(self, tmp_path):
        spec = shipped_spec("figure5", ("treeadd",))

        cold = SweepExecutor(cache=ResultCache(tmp_path))
        rows_cold = run_spec(spec.with_machine("small"), executor=cold)
        assert cold.stats()["executed"] == 8

        warm = SweepExecutor(cache=ResultCache(tmp_path))
        rows_warm = run_spec(spec.with_machine("small"), executor=warm)
        assert warm.stats()["executed"] == 0  # every cell cache-served
        assert rows_warm == rows_cold

    def test_spec_overrides_address_distinct_cache_entries(self, tmp_path):
        base = ExperimentSpec(
            name="x", workloads=(WorkloadSel(
                "treeadd", params=TREEADD),),
            schemes=("base",), columns=("benchmark", "scheme", "total"),
        )
        varied = ExperimentSpec.from_dict(
            {**base.to_dict(), "overrides": {"memory_latency": 280}})

        first = SweepExecutor(cache=ResultCache(tmp_path))
        run_spec(base.with_machine("small"), executor=first)
        second = SweepExecutor(cache=ResultCache(tmp_path))
        run_spec(varied.with_machine("small"), executor=second)
        # The override changes the machine, so nothing may be reused.
        assert second.stats()["executed"] > 0


# ----------------------------------------------------------------------
# The mshr_model machine axis through the spec/serde layer
# ----------------------------------------------------------------------

class TestMshrModelAxis:
    def test_with_overrides_rejects_unknown_model(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError, match="writethru"):
            small_config().with_overrides({"mshr_model": "writethru"})

    def test_from_dict_rejects_unknown_model(self):
        from repro.config import MachineConfig
        from repro.errors import ConfigError
        doc = small_config().to_dict()
        doc["mshr_model"] = "nope"
        with pytest.raises(ConfigError, match="nope"):
            MachineConfig().with_overrides(doc)

    @pytest.mark.parametrize("model", ["blocking", "coalescing", "full"])
    def test_serde_round_trip(self, model):
        from repro.config import MachineConfig
        cfg = small_config().with_overrides({"mshr_model": model})
        assert cfg.mshr_model == model
        assert MachineConfig().with_overrides(cfg.to_dict()) == cfg

    def test_mshr_axis_spec_round_trips(self):
        spec = ExperimentSpec(
            name="mshr-x", label_key="scheme",
            workloads=(WorkloadSel(
                "treeadd", params=TREEADD),),
            schemes=("base",),
            axes=(Axis(name="mshr",
                       values=("blocking", "coalescing", "full"),
                       set=("machine.mshr_model",)),),
            columns=("benchmark", "mshr", "scheme", "total"),
        )
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_mshr_cells_never_share_cache_entries(self, tmp_path):
        # Cached blocking results must never be served for coalescing
        # cells: the model is part of the config hash / cache key.
        base = ExperimentSpec(
            name="x", workloads=(WorkloadSel(
                "treeadd", params=TREEADD),),
            schemes=("base",), columns=("benchmark", "scheme", "total"),
        )
        varied = ExperimentSpec.from_dict(
            {**base.to_dict(), "overrides": {"mshr_model": "coalescing"}})

        first = SweepExecutor(cache=ResultCache(tmp_path))
        run_spec(base.with_machine("small"), executor=first)
        second = SweepExecutor(cache=ResultCache(tmp_path))
        run_spec(varied.with_machine("small"), executor=second)
        assert second.stats()["executed"] > 0


# ----------------------------------------------------------------------
# Error rows and artifacts
# ----------------------------------------------------------------------

class TestErrorsAndArtifacts:
    def test_missing_variant_becomes_error_row(self):
        # treeadd has no root idiom: scheme-mode planning fails the
        # whole compile (scheme_plan raises inside add_run) only if the
        # variant is missing — use idiom pinning to trigger it.
        spec = ExperimentSpec(
            name="x", workloads=(WorkloadSel(
                "treeadd", params=TREEADD, idiom="root"),),
            schemes=("software",), columns=("benchmark", "scheme", "total"),
        )
        with pytest.raises(Exception, match="root"):
            compile_spec(spec.with_machine("small"))

    def test_idiom_expansion_skips_missing_variants(self):
        spec = ExperimentSpec(
            name="x", label_key="config",
            workloads=(WorkloadSel(
                "treeadd", params=TREEADD,
                idioms=("queue", "root")),),
            columns=("benchmark", "config", "normalized"),
        )
        rows = run_spec(spec.with_machine("small"))
        configs = [r["config"] for r in rows]
        # base + sw:queue + coop:queue; no treeadd root variants exist.
        assert configs == ["base", "sw:queue", "coop:queue"]

    def test_artifact_embeds_spec(self):
        spec = shipped_spec("figure7", latency=(70,), interval=(4,))
        rows = [{"latency": 70, "interval": 4, "scheme": "base"}]
        doc = spec_artifact(spec, rows, meta={"source": "test"})
        assert doc["schema"] == "repro.experiment/1"
        assert doc["meta"]["source"] == "test"
        assert doc["rows"] == rows
        # Provenance: the embedded spec reloads to the original.
        assert ExperimentSpec.from_dict(doc["spec"]) == spec
