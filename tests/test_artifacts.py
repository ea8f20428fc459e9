"""Machine-readable artifacts: SimResult/SchemeRun serialization and the
schema-stamped JSON documents."""

import io
import json

from repro import Telemetry, simulate, small_config
from repro.harness import SweepPlan
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
        # The per-miss (start, ready) pairs are reduced to one reading at
        # finalize: neither the artifact nor the live Telemetry keeps them.
        tele = Telemetry()
        d = _result(tele).to_dict()
        misses = d["telemetry"]["metrics"]["mem.miss_latency_cycles"]["count"]
        assert misses > 0
        assert d["telemetry"]["miss_parallelism"] >= 1.0  # a miss counts itself
        assert len(tele.miss_starts) == len(tele.miss_ends) == 0
        assert "miss_intervals" not in d["hierarchy"]
        assert not {"miss_starts", "miss_ends"} & set(d["telemetry"])


class TestSchemeRunToDict:
    def test_shape_and_normalization(self):
        from repro.workloads import workload_class

        plan = SweepPlan(small_config())
        params = workload_class("health").test_params()
        handles = [plan.add_run("health", s, params, telemetry=True)
                   for s in ("base", "hardware")]
        results = plan.execute()
        base, run = (results.scheme_run(h) for h in handles)
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
