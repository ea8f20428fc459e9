"""Cycle-attribution profiler: conservation, site tables, audit wiring.

The load-bearing property is **conservation**: every committed
instruction's commit-front advance lands in exactly one CPI-stack
bucket, so the buckets sum *exactly* to total cycles — checked here
directly, across random machine configs (hypothesis), and through the
auditor's invariant sweep.  Profiling must also be a pure observer:
cycle counts with and without a profiler attached are bit-identical,
and so is every counter of a run with telemetry or an event trace.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import get_workload, simulate, small_config
from repro.audit import Auditor
from repro.cpu.stats import SimResult
from repro.harness import ExperimentSpec, WorkloadSel, compile_spec
from repro.harness.schemes import scheme_names
from repro.obs import (
    BUCKETS,
    EventTrace,
    LEVELS,
    Profiler,
    Telemetry,
    cpi_stack_rows,
    hot_site_rows,
    latency_rows,
)
from tests.conftest import assemble_list_walk, assemble_loop_sum


def _profiled(program, cfg, engine="none", **kw):
    prof = Profiler()
    result = simulate(program, cfg, engine=engine, profile=prof, **kw)
    return prof, result


class TestConservation:
    def test_buckets_sum_to_cycles(self, cfg):
        program, __ = assemble_list_walk(32)
        prof, result = _profiled(program, cfg, engine="hardware")
        assert sum(prof.buckets.values()) == result.cycles
        assert prof.finalized and prof.cycles == result.cycles
        assert prof.instructions == result.instructions

    def test_compute_only_program_is_all_base_and_branch(self, cfg):
        program, __ = assemble_loop_sum(64)
        prof, result = _profiled(program, cfg)
        assert sum(prof.buckets.values()) == result.cycles
        # No linked-data loads: every load hits L1 or forwards.
        for lvl in ("pb", "merge", "l2", "mem"):
            assert prof.buckets[f"load.{lvl}"] == 0
        assert not prof.sites  # no load ever left the L1 class with stalls

    def test_stall_attribution_rekeyed_by_pc_and_reason(self, cfg):
        program, __ = assemble_list_walk(32)
        prof, result = _profiled(program, cfg, engine="dbp")
        assert prof.stall_attribution
        for (pc, reason), cyc in prof.stall_attribution.items():
            assert isinstance(pc, int) and reason in BUCKETS and cyc > 0
        # The fine-grained table is a refinement of the buckets ...
        assert sum(prof.stall_attribution.values()) == result.cycles
        per_reason = {}
        for (__, reason), cyc in prof.stall_attribution.items():
            per_reason[reason] = per_reason.get(reason, 0) + cyc
        assert per_reason == {b: c for b, c in prof.buckets.items() if c}

    def test_perfect_memory_loads_count_as_l1(self, cfg):
        program, __ = assemble_list_walk(16)
        prof, result = _profiled(program, cfg.perfect())
        assert sum(prof.buckets.values()) == result.cycles
        for lvl in ("pb", "merge", "l2", "mem"):
            assert prof.buckets[f"load.{lvl}"] == 0


#: Random-but-valid machine shapes: the conservation law must hold on
#: every one of them, not just the shipped presets.
machine_overrides = st.fixed_dictionaries(
    {},
    optional={
        "memory_latency": st.integers(min_value=5, max_value=400),
        "window": st.sampled_from([8, 16, 64, 256]),
        "dl1.latency": st.integers(min_value=0, max_value=4),
        "l2.latency": st.integers(min_value=2, max_value=30),
        "max_outstanding_misses": st.integers(min_value=1, max_value=16),
        "func_units.int_alu": st.integers(min_value=1, max_value=4),
        "branch_pred.misprediction_penalty": st.integers(min_value=0, max_value=12),
        "prefetch.jump_interval": st.integers(min_value=1, max_value=16),
    },
)


class TestConservationProps:
    @given(machine_overrides, st.sampled_from(["none", "dbp", "hardware"]))
    @settings(max_examples=20, deadline=None)
    def test_holds_on_random_machines(self, overrides, engine):
        cfg = small_config().with_overrides(overrides)
        program, __ = assemble_list_walk(24)
        prof, result = _profiled(program, cfg, engine=engine)
        assert sum(prof.buckets.values()) == result.cycles
        assert prof.audit_check(result.cycles) == []
        assert all(v >= 0 for v in prof.buckets.values())

    @given(machine_overrides)
    @settings(max_examples=10, deadline=None)
    def test_profiling_never_changes_cycles(self, overrides):
        cfg = small_config().with_overrides(overrides)
        program, __ = assemble_list_walk(24)
        bare = simulate(program, cfg, engine="hardware")
        prof, profiled = _profiled(program, cfg, engine="hardware")
        assert profiled.cycles == bare.cycles
        assert profiled.instructions == bare.instructions


class TestObserverPurity:
    def test_bit_identical_cycles_all_engines(self, cfg):
        program, __ = assemble_list_walk(32)
        for engine in ("none", "software", "dbp", "cooperative", "hardware"):
            bare = simulate(program, cfg, engine=engine)
            __, profiled = _profiled(program, cfg, engine=engine)
            assert profiled.cycles == bare.cycles, engine

    @pytest.mark.parametrize("observe", [
        lambda: {"profile": Profiler()},
        lambda: {"telemetry": Telemetry()},
        lambda: {"telemetry": Telemetry(trace=EventTrace())},
    ], ids=["profile", "telemetry", "trace"])
    def test_observers_never_change_a_run(self, observe):
        # Every scheme on three workloads: a profiled, telemetered or
        # traced run has the bare run's cycles, instructions and
        # hierarchy, engine and branch stats.
        spec = ExperimentSpec(
            name="observer-purity",
            machine="small",
            workloads=tuple(WorkloadSel(n) for n in
                            ("health", "em3d", "treeadd")),
            schemes=tuple(scheme_names()),
            columns=("scheme",),
        ).small()
        for row in compile_spec(spec).rows:
            cell = row.run.timing
            workload = get_workload(cell.benchmark, **dict(cell.params))
            program = workload.build(cell.variant).program
            bare = simulate(program, cell.cfg, engine=cell.engine)
            seen = simulate(program, cell.cfg, engine=cell.engine,
                            **observe())
            where = f"{cell.benchmark}/{cell.variant}/{cell.engine}"
            for field in ("cycles", "instructions", "hierarchy", "engine",
                          "branch"):
                assert getattr(seen, field) == getattr(bare, field), (
                    where, field)

    def test_unprofiled_result_has_no_profile(self, cfg):
        program, __ = assemble_list_walk(8)
        result = simulate(program, cfg)
        assert result.profile is None

    def test_model_without_profiler_has_empty_attribution(self, cfg):
        from repro.cpu.simulator import make_engine
        from repro.cpu.timing import TimingModel

        program, __ = assemble_list_walk(8)
        model = TimingModel(program, cfg, make_engine("none", cfg))
        model.run()
        assert model.stall_attribution == {}


class TestSiteTable:
    def test_pointer_chase_sites_ranked_by_stalls(self, cfg):
        program, __ = assemble_list_walk(48)
        prof, result = _profiled(program, cfg, engine="none")
        d = prof.to_dict()
        assert d["sites"], "a pointer chase must produce stalled load sites"
        stalls = [s["stalls"] for s in d["sites"]]
        assert stalls == sorted(stalls, reverse=True)
        # The chase loads are tagged lds and should dominate the stalls.
        top = d["sites"][0]
        assert top["lds"] and top["op"] == "LW" and top["tag"] == "lds"
        assert sum(top["levels"].values()) == top["count"]
        assert top["misses"] <= top["count"]

    def test_prefetching_shrinks_lds_share(self, tiny_cfg):
        def lds_share(engine):
            prof, result = _profiled(program, tiny_cfg, engine=engine)
            sites = prof.to_dict()["sites"]
            stalls = sum(s["stalls"] for s in sites if s["lds"])
            return stalls / result.cycles, result.cycles

        program, __ = assemble_list_walk(96)
        base_share, base_cycles = lds_share("none")
        # The walk is single-pass, so the gain is modest, but prefetching
        # must not grow the linked-data stall share or the run time.
        dbp_share, dbp_cycles = lds_share("dbp")
        assert base_share > 0.3
        assert dbp_share <= base_share
        assert dbp_cycles <= base_cycles * 1.05

    def test_outcome_mix_attached_with_telemetry(self, cfg):
        # The synthetic list walk traverses once (nothing to prefetch);
        # health re-traverses its lists, so hardware JPF issues real
        # prefetches whose outcome mix lands on the loads' sites.
        from repro import get_workload
        from repro.workloads import workload_class

        params = workload_class("health").test_params()
        program = get_workload("health", **params).build("baseline").program
        prof = Profiler()
        simulate(program, cfg, engine="hardware", profile=prof,
                 telemetry=Telemetry())
        d = prof.to_dict()
        assert any("outcomes" in s for s in d["sites"]), (
            "hardware JPF issues prefetches; some site must carry a mix"
        )

    def test_hot_site_rows_shape(self, cfg):
        program, __ = assemble_list_walk(48)
        prof, __r = _profiled(program, cfg)
        rows = hot_site_rows(prof.to_dict(), top=3)
        assert 0 < len(rows) <= 3
        assert [r["rank"] for r in rows] == list(range(1, len(rows) + 1))
        assert all(0 <= r["miss%"] <= 100 for r in rows)

    def test_cpi_stack_rows_cover_all_buckets(self, cfg):
        program, __ = assemble_list_walk(16)
        prof, result = _profiled(program, cfg)
        rows = cpi_stack_rows(prof.to_dict())
        assert [r["bucket"] for r in rows] == list(BUCKETS)
        assert sum(r["cycles"] for r in rows) == result.cycles

    def test_latency_rows_cover_all_levels(self, cfg):
        program, __ = assemble_list_walk(16)
        prof, __r = _profiled(program, cfg)
        rows = latency_rows(prof.to_dict())
        assert [r["level"] for r in rows] == list(LEVELS)
        assert sum(r["count"] for r in rows) > 0


class TestRoundTrip:
    def test_profile_survives_simresult_serde(self, cfg):
        program, __ = assemble_list_walk(32)
        prof = Profiler()
        result = simulate(program, cfg, engine="hardware", profile=prof)
        assert result.profile == prof.to_dict()
        back = SimResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert back == result
        assert back.profile["cpi_stack"] == prof.buckets
        assert back.profile["sites"] == result.profile["sites"]

    def test_old_payload_without_profile_still_loads(self, cfg):
        program, __ = assemble_list_walk(8)
        d = simulate(program, cfg).to_dict()
        d.pop("profile", None)  # a pre-profiler cache entry
        assert SimResult.from_dict(d).profile is None


class TestAuditIntegration:
    def test_auditor_sweeps_profiler_cleanly(self, cfg):
        program, __ = assemble_list_walk(32)
        auditor = Auditor(interval=64)
        prof = Profiler()
        simulate(program, cfg, engine="hardware", profile=prof, audit=auditor)
        assert auditor.ok, [v.describe() for v in auditor.violations]
        assert auditor.checks > 1  # swept mid-run, not only at the end

    def test_tampered_buckets_are_caught(self):
        prof = Profiler()
        prof.charge(0, "base", 5, 5)
        prof.buckets["base"] += 1  # break conservation
        names = [name for name, __ in prof.audit_check(5)]
        assert "cpi-conservation" in names

    def test_desynced_commit_front_is_caught(self):
        prof = Profiler()
        prof.charge(0, "base", 5, 5)
        names = [name for name, __ in prof.audit_check(9)]
        assert "cpi-cycle-sync" in names

    def test_negative_bucket_is_caught(self):
        prof = Profiler()
        prof.charge(0, "base", 5, 5)
        prof.buckets["branch"] -= 3
        prof.buckets["base"] += 3  # keep the sum right: isolate the check
        names = [name for name, __ in prof.audit_check(5)]
        assert names == ["cpi-nonnegative"]


class TestCounterTracks:
    def test_profiled_trace_carries_counter_samples(self, cfg):
        program, __ = assemble_list_walk(48)
        trace = EventTrace()
        prof = Profiler(trace_interval=256)
        simulate(program, cfg, engine="none", profile=prof,
                 telemetry=Telemetry(trace=trace))
        counters = [e for e in trace.events if e[0] == "C"]
        names = {e[1] for e in counters}
        assert {"cpi_stack", "load_level"} <= names
        # The final flush samples the finished stack at the last cycle.
        last = [e for e in counters if e[1] == "cpi_stack"][-1]
        assert last[5] == prof.buckets
        assert sum(last[5].values()) == prof.cycles

    def test_no_trace_no_counters(self, cfg):
        program, __ = assemble_list_walk(16)
        prof = Profiler()
        simulate(program, cfg, profile=prof, telemetry=Telemetry())
        assert prof._trace is None  # nothing to emit into


class TestHarnessAxis:
    def test_runspec_profile_changes_cache_key(self):
        from repro.harness import RunSpec, spec_key

        cfg = small_config()
        plain = RunSpec.make("health", "baseline", "none", cfg)
        profiled = RunSpec.make("health", "baseline", "none", cfg,
                                profile=True)
        assert spec_key(plain) != spec_key(profiled)
        assert "+profile" in profiled.describe()

    def test_sweep_plan_profiles_timing_cell_only(self):
        from repro.harness.executor import SweepPlan

        plan = SweepPlan(small_config())
        run = plan.add_run("treeadd", "base",
                           params={"levels": 3, "passes": 1}, profile=True)
        assert run.timing.profile
        # Compute-time cells stay unprofiled so profiled and unprofiled
        # experiments keep sharing them in the result cache.
        assert not run.compute.profile

    def test_experiment_spec_profile_round_trip(self):
        from repro.harness import ExperimentSpec

        doc = {"name": "p", "workloads": ["treeadd"], "schemes": ["base"],
               "columns": ["scheme", "cycles"], "profile": True}
        spec = ExperimentSpec.from_dict(doc)
        assert spec.profile is True
        assert spec.to_dict()["profile"] is True
        bare = ExperimentSpec.from_dict({**doc, "profile": False})
        assert "profile" not in bare.to_dict()

    def test_compiled_spec_threads_profile_to_timing_cells(self):
        from repro.harness import ExperimentSpec, compile_spec

        spec = ExperimentSpec.from_dict({
            "name": "p", "machine": "small",
            "workloads": [{"name": "treeadd",
                           "params": {"levels": 3, "passes": 1}}],
            "schemes": ["base", "hardware"],
            "columns": ["scheme", "cycles"], "profile": True,
        })
        compiled = compile_spec(spec)
        timing = [s for s in compiled.plan._specs
                  if not s.cfg.perfect_data_memory and s.kind == "sim"]
        assert timing and all(s.profile for s in timing)

    def test_executor_cell_emits_profile(self, tmp_path):
        from repro.harness import ResultCache
        from repro.harness.executor import SweepExecutor, SweepPlan

        params = {"levels": 3, "passes": 1}

        def run_once():
            plan = SweepPlan(small_config())
            scheduled = plan.add_run("treeadd", "base", params=params,
                                     profile=True)
            results = plan.execute(SweepExecutor(cache=ResultCache(tmp_path)))
            return scheduled, results.cells[scheduled.timing]

        __, cell = run_once()
        assert cell.ok and cell.result.profile is not None
        stack = cell.result.profile["cpi_stack"]
        assert sum(stack.values()) == cell.result.cycles
        # ... and the profile survives a round trip through the cache.
        __, warm = run_once()
        assert warm.cached
        assert warm.result.profile == cell.result.profile


class TestCli:
    def test_profile_subcommand(self, capsys, tmp_path):
        from repro.__main__ import main

        path = tmp_path / "p.json"
        rc = main(["run", "health", "--small", "--scheme", "hardware",
                   "--profile", "-o", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "CPI stack" in out and "profile audit OK" in out
        assert "Hot load sites" in out
        # The artifact's CPI stack is conserved too.
        doc = json.loads(path.read_text())
        run = doc["meta"]["runs"]["hardware"]
        prof = run["result"]["profile"]
        assert sum(prof["cpi_stack"].values()) == prof["cycles"] \
            == run["total"] == doc["rows"][0]["cycles"]
