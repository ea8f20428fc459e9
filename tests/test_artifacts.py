"""Machine-readable artifacts: SimResult/SchemeRun serialization and the
schema-stamped JSON documents."""

import io
import json

from repro import Telemetry, simulate, small_config
from repro.harness import BenchmarkRunner
from repro.obs import artifact, dump_json, load_json, schema_kind

from tests.conftest import assemble_list_walk


def _result(telemetry=None):
    program, __ = assemble_list_walk(32)
    return simulate(program, small_config(), engine="dbp", telemetry=telemetry)


class TestSimResultToDict:
    def test_json_round_trip(self):
        res = _result(Telemetry())
        d = res.to_dict()
        restored = json.loads(json.dumps(d))
        assert restored == d  # everything JSON-representable, losslessly
        assert restored["cycles"] == res.cycles
        assert restored["engine"] == "dbp"
        assert restored["derived"]["ipc"] == res.ipc
        assert restored["engine_stats"]["chained_prefetches"] == (
            res.engine.chained_prefetches
        )

    def test_telemetry_embedded(self):
        d = _result(Telemetry()).to_dict()
        tele = d["telemetry"]
        assert set(tele["prefetch_outcomes"]["counts"]) == {
            "timely", "late", "early-evicted", "useless", "dropped",
        }
        assert "mem.miss_latency_cycles" in tele["metrics"]
        assert "prefetch.prq_occupancy" in tele["metrics"]

    def test_without_telemetry(self):
        d = _result().to_dict()
        assert d["telemetry"] is None

    def test_miss_intervals_reduced_to_count(self):
        program, __ = assemble_list_walk(32)
        res = simulate(program, small_config(), engine="none",
                       collect_miss_intervals=True)
        d = res.to_dict()
        assert d["hierarchy"]["miss_interval_count"] == len(
            res.hierarchy.miss_intervals
        )
        assert "miss_intervals" not in d["hierarchy"]


class TestSchemeRunToDict:
    def test_shape_and_normalization(self):
        from repro.workloads import workload_class

        runner = BenchmarkRunner(
            "health", small_config(), workload_class("health").test_params()
        )
        base = runner.run("base")
        run = runner.run("hardware", telemetry=Telemetry())
        d = run.to_dict(baseline_total=base.total)
        assert d["scheme"] == "hardware"
        assert d["memory"] == d["total"] - d["compute"]
        assert d["normalized"] == run.total / base.total
        assert d["result"]["telemetry"] is not None
        json.dumps(d)  # JSON-safe


class TestArtifactDocuments:
    def test_schema_stamp_and_kind(self):
        doc = artifact("experiment", {"x": 1}, meta={"m": 2})
        assert doc["schema"] == "repro.experiment/1"
        assert doc["meta"] == {"m": 2} and doc["x"] == 1
        assert schema_kind(doc) == "experiment"
        assert schema_kind({"schema": "garbage"}) == ""
        assert schema_kind({}) == ""

    def test_dump_to_stream_and_path(self, tmp_path):
        doc = artifact("sim_result", {"cycles": 7})
        buf = io.StringIO()
        text = dump_json(doc, buf)
        assert json.loads(buf.getvalue()) == doc
        assert json.loads(text) == doc
        path = tmp_path / "a.json"
        dump_json(doc, str(path))
        assert load_json(str(path)) == doc
