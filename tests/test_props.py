"""Property-based tests on ISA semantics, workload mirrors, and the
sweep harness's content-addressed identities (RunSpec/spec_key) and
serialization round-trips (SimResult, ResultCache, MachineConfig)."""

import dataclasses
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Assembler, ConfigError, MachineConfig, run_to_completion, small_config
from repro.harness import ResultCache, RunSpec, spec_key
from repro.isa.registers import A0, T0, T1, T2, V0, ZERO
from repro.workloads.olden.common import LCG_MASK, emit_lcg, lcg

ints = st.integers(min_value=-(2**31), max_value=2**31 - 1)
small_ints = st.integers(min_value=-1000, max_value=1000)


def _binop(op_name, x, y):
    a = Assembler()
    a.label("main")
    a.li(T0, x)
    a.li(T1, y)
    getattr(a, op_name)(T2, T0, T1)
    a.halt()
    return run_to_completion(a.assemble()).registers[T2]


class TestAluSemantics:
    @given(ints, ints)
    @settings(max_examples=40, deadline=None)
    def test_add_matches_python(self, x, y):
        assert _binop("add", x, y) == x + y

    @given(ints, ints)
    @settings(max_examples=40, deadline=None)
    def test_sub_matches_python(self, x, y):
        assert _binop("sub", x, y) == x - y

    @given(small_ints, small_ints)
    @settings(max_examples=40, deadline=None)
    def test_mul_matches_python(self, x, y):
        assert _binop("mul", x, y) == x * y

    @given(st.integers(min_value=0, max_value=2**31), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_bitwise_match_python(self, x, y):
        assert _binop("and_", x, y) == x & y
        assert _binop("or_", x, y) == x | y
        assert _binop("xor", x, y) == x ^ y

    @given(ints, ints)
    @settings(max_examples=40, deadline=None)
    def test_slt_matches_python(self, x, y):
        assert _binop("slt", x, y) == int(x < y)

    @given(ints, st.integers(min_value=-500, max_value=500).filter(lambda v: v))
    @settings(max_examples=40, deadline=None)
    def test_div_rem_identity(self, x, y):
        q = _binop("div", x, y)
        r = _binop("rem", x, y)
        assert q * y + r == x
        assert abs(r) < abs(y)


class TestFloatSemantics:
    floats = st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    )

    @given(floats, floats)
    @settings(max_examples=40, deadline=None)
    def test_fp_ops_bit_exact(self, x, y):
        a = Assembler()
        a.label("main")
        a.fli(T0, x)
        a.fli(T1, y)
        a.fadd(T2, T0, T1)
        a.halt()
        assert run_to_completion(a.assemble()).registers[T2] == x + y


class TestLcg:
    @given(st.integers(min_value=0, max_value=LCG_MASK))
    @settings(max_examples=40, deadline=None)
    def test_emitted_lcg_matches_mirror(self, seed):
        a = Assembler()
        a.label("main")
        a.li(T0, seed)
        emit_lcg(a, T0, T1)
        a.halt()
        assert run_to_completion(a.assemble()).registers[T0] == lcg(seed)

    @given(st.integers(min_value=0, max_value=LCG_MASK))
    @settings(max_examples=50, deadline=None)
    def test_lcg_stays_in_range(self, seed):
        assert 0 <= lcg(seed) <= LCG_MASK


class TestWorkloadMirrors:
    @given(st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=3))
    @settings(max_examples=15, deadline=None)
    def test_treeadd_any_size(self, levels, passes):
        from repro.workloads.olden.treeadd import TreeAdd

        w = TreeAdd(levels=levels, passes=passes, interval=2)
        built = w.build("baseline")
        interp = run_to_completion(built.program)
        built.verify(interp)

    @given(st.integers(min_value=5, max_value=14))
    @settings(max_examples=8, deadline=None)
    def test_mst_any_size_matches_networkx(self, n):
        import networkx as nx

        from repro.workloads.olden.mst import edge_weight, mirror

        G = nx.Graph()
        for u in range(n):
            for v in range(u + 1, n):
                G.add_edge(u, v, weight=edge_weight(u, v))
        T = nx.minimum_spanning_tree(G)
        assert mirror(n, 4) == sum(d["weight"] for *__, d in T.edges(data=True))

    @given(
        st.integers(min_value=2, max_value=3),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=10, deadline=None)
    def test_health_kernel_matches_mirror(self, levels, npat, iterations):
        from repro.workloads.olden.health import Health

        w = Health(
            levels=levels, branching=2, npat=npat,
            iterations=iterations, interval=2,
        )
        built = w.build("sw:chain")
        interp = run_to_completion(built.program)
        built.verify(interp)

    @given(st.integers(min_value=8, max_value=32))
    @settings(max_examples=8, deadline=None)
    def test_tsp_kernel_matches_mirror(self, n):
        from repro.workloads.olden.tsp import TSP

        w = TSP(n=n, interval=4)
        built = w.build("baseline")
        interp = run_to_completion(built.program)
        built.verify(interp)


# ----------------------------------------------------------------------
# Harness identities: RunSpec freezing and spec_key content-addressing
# ----------------------------------------------------------------------

#: Random-but-plausible workload parameter dicts.
param_dicts = st.dictionaries(
    st.sampled_from(["levels", "passes", "interval", "n", "iterations"]),
    st.integers(min_value=1, max_value=64),
    max_size=5,
)

engines = st.sampled_from(["none", "software", "cooperative", "hardware", "dbp"])


class TestSpecIdentityProps:
    @given(param_dicts, engines)
    @settings(max_examples=25, deadline=None)
    def test_freeze_is_insertion_order_insensitive(self, params, engine):
        cfg = small_config()
        items = list(params.items())
        a = RunSpec.make("treeadd", "baseline", engine, cfg, dict(items))
        b = RunSpec.make("treeadd", "baseline", engine, cfg,
                         dict(reversed(items)))
        assert a == b and hash(a) == hash(b)
        assert spec_key(a) == spec_key(b)

    @given(param_dicts, engines)
    @settings(max_examples=25, deadline=None)
    def test_key_is_stable_and_param_sensitive(self, params, engine):
        cfg = small_config()
        spec = RunSpec.make("health", "baseline", engine, cfg, params)
        assert spec_key(spec) == spec_key(spec)
        bumped = {**params, "interval": params.get("interval", 0) + 1}
        assert spec_key(
            RunSpec.make("health", "baseline", engine, cfg, bumped)
        ) != spec_key(spec)

    @given(st.integers(min_value=10, max_value=500))
    @settings(max_examples=15, deadline=None)
    def test_key_covers_machine_config(self, latency):
        cfg = small_config()
        varied = cfg.with_overrides({"memory_latency": latency})
        a = RunSpec.make("health", "baseline", "none", cfg)
        b = RunSpec.make("health", "baseline", "none", varied)
        if varied == cfg:
            assert spec_key(a) == spec_key(b)
        else:
            assert spec_key(a) != spec_key(b)


# ----------------------------------------------------------------------
# Serialization round-trips under random configs
# ----------------------------------------------------------------------

def _walk_program(n=12):
    """Tiny build-then-walk linked list: misses under small caches, so
    random memory latencies actually show up in the stats."""
    a = Assembler()
    head = a.word(0)
    a.label("main")
    a.li(T0, n)
    a.label("build")
    a.beqz(T0, "walk")
    a.alloc(T1, ZERO, 16)
    a.sw(T0, T1, 0)
    a.li(A0, head)
    a.lw(V0, A0, 0)
    a.sw(V0, T1, 4)
    a.sw(T1, A0, 0)
    a.addi(T0, T0, -1)
    a.j("build")
    a.label("walk")
    a.li(A0, head)
    a.lw(T1, A0, 0, tag="lds")
    a.label("wloop")
    a.beqz(T1, "done")
    a.lw(V0, T1, 0, pad=16, tag="lds")
    a.lw(T1, T1, 4, pad=16, tag="lds")
    a.j("wloop")
    a.label("done")
    a.halt()
    return a.assemble("props_walk")


# ----------------------------------------------------------------------
# MachineConfig serde round-trips over randomized valid configs
# ----------------------------------------------------------------------

#: Dotted override paths paired with strategies that only produce values
#: the config validators accept — so every drawn config is constructible.
_VALID_OVERRIDES = {
    "memory_latency": st.integers(min_value=1, max_value=1000),
    "max_outstanding_misses": st.integers(min_value=1, max_value=64),
    "mshr_model": st.sampled_from(["blocking", "coalescing", "full"]),
    "window": st.integers(min_value=8, max_value=512),
    "alloc_latency": st.integers(min_value=0, max_value=64),
    "dl1.latency": st.integers(min_value=0, max_value=8),
    "l2.latency": st.integers(min_value=1, max_value=40),
    "dtlb.miss_penalty": st.integers(min_value=0, max_value=200),
    "l2_bus.width": st.sampled_from([2, 4, 8, 16, 32]),
    "mem_bus.clock_divisor": st.sampled_from([1, 2, 4, 8]),
    "func_units.int_alu": st.integers(min_value=1, max_value=8),
    "func_units.fp_div_latency": st.integers(min_value=1, max_value=64),
    "branch_pred.misprediction_penalty": st.integers(min_value=0, max_value=20),
    "prefetch.jump_interval": st.integers(min_value=1, max_value=64),
    "prefetch.jqt_entries": st.integers(min_value=1, max_value=256),
    "perfect_data_memory": st.booleans(),
}

random_overrides = st.dictionaries(
    st.sampled_from(sorted(_VALID_OVERRIDES)),
    st.none(),  # placeholder; values drawn per-key below
    max_size=6,
).flatmap(lambda keys: st.fixed_dictionaries(
    {k: _VALID_OVERRIDES[k] for k in keys}
))


class TestConfigSerdeProps:
    @given(random_overrides)
    @settings(max_examples=40, deadline=None)
    def test_dict_round_trip(self, overrides):
        cfg = small_config().with_overrides(overrides)
        assert MachineConfig().with_overrides(cfg.to_dict()) == cfg

    @given(random_overrides)
    @settings(max_examples=25, deadline=None)
    def test_json_round_trip(self, overrides):
        cfg = small_config().with_overrides(overrides)
        blob = json.dumps(cfg.to_dict(), sort_keys=True)
        assert MachineConfig().with_overrides(json.loads(blob)) == cfg

    @given(random_overrides)
    @settings(max_examples=25, deadline=None)
    def test_overrides_land_on_the_right_leaf(self, overrides):
        cfg = small_config().with_overrides(overrides)
        d = cfg.to_dict()
        for path, value in overrides.items():
            node = d
            for part in path.split("."):
                node = node[part]
            assert node == value

    @given(st.text(min_size=1, max_size=12).filter(
        lambda s: s.split(".")[0] not in
        {f.name for f in dataclasses.fields(MachineConfig)}
    ))
    @settings(max_examples=25, deadline=None)
    def test_unknown_override_path_rejected(self, path):
        with pytest.raises(ConfigError):
            small_config().with_overrides({path: 1})

    @given(st.text(min_size=1, max_size=12).filter(
        # A dict key is a path too: "prefetch.jqt_entries" is valid.
        lambda s: s.split(".")[0] not in
        {f.name for f in dataclasses.fields(MachineConfig)}
    ))
    @settings(max_examples=25, deadline=None)
    def test_unknown_dict_key_rejected(self, key):
        d = small_config().to_dict()
        d[key] = 1
        with pytest.raises(ConfigError):
            MachineConfig().with_overrides(d)


class TestResultRoundTripProps:
    @given(st.integers(min_value=20, max_value=400),
           st.sampled_from(["none", "dbp", "hardware"]))
    @settings(max_examples=8, deadline=None)
    def test_simresult_json_roundtrip(self, latency, engine):
        from repro.cpu.simulator import simulate
        from repro.cpu.stats import SimResult

        cfg = small_config().with_overrides({"memory_latency": latency})
        result = simulate(_walk_program(), cfg, engine=engine)
        back = SimResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert back == result

    @given(st.integers(min_value=20, max_value=400),
           st.sampled_from(["none", "dbp", "hardware"]))
    @settings(max_examples=6, deadline=None)
    def test_result_cache_roundtrip(self, latency, engine):
        from repro.cpu.simulator import simulate

        cfg = small_config().with_overrides({"memory_latency": latency})
        spec = RunSpec.make("props-walk", "baseline", engine, cfg)
        result = simulate(_walk_program(), cfg, engine=engine)
        with tempfile.TemporaryDirectory() as tmp:
            cache = ResultCache(Path(tmp))
            cache.put(spec, result)
            back = cache.get(spec)
        assert back == result
        assert cache.hits == 1 and cache.misses == 0
