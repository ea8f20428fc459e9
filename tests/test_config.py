"""Machine configuration validation, serialization, and derived
quantities, plus the named machine registry."""

import json

import pytest

from repro import ConfigError, MachineConfig, bench_config, small_config, table2_config
from repro.config import (
    MACHINES,
    BusConfig,
    CacheConfig,
    FuncUnitConfig,
    TLBConfig,
    get_machine,
    machine_names,
    register_machine,
)


class TestCacheConfig:
    def test_sets_derived(self):
        c = CacheConfig(size=64 * 1024, line=32, assoc=2, latency=1)
        assert c.sets == 1024

    def test_direct_mapped(self):
        c = CacheConfig(size=1024, line=32, assoc=1, latency=1)
        assert c.sets == 32

    def test_fully_associative(self):
        c = CacheConfig(size=2048, line=32, assoc=64, latency=1)
        assert c.sets == 1

    @pytest.mark.parametrize("size", [0, -1, 100, 3000])
    def test_rejects_non_power_of_two_size(self, size):
        with pytest.raises(ConfigError):
            CacheConfig(size=size, line=32, assoc=2, latency=1)

    def test_rejects_non_power_of_two_line(self):
        with pytest.raises(ConfigError):
            CacheConfig(size=1024, line=24, assoc=2, latency=1)

    def test_rejects_bad_assoc(self):
        with pytest.raises(ConfigError):
            CacheConfig(size=1024, line=32, assoc=0, latency=1)

    def test_rejects_indivisible_geometry(self):
        with pytest.raises(ConfigError):
            CacheConfig(size=1024, line=32, assoc=64, latency=1)

    def test_rejects_negative_latency(self):
        with pytest.raises(ConfigError):
            CacheConfig(size=1024, line=32, assoc=2, latency=-1)


class TestBusConfig:
    def test_full_line_transfer(self):
        bus = BusConfig(width=8, clock_divisor=2)
        assert bus.cycles_for(32) == 8  # 4 beats at 2 core cycles each

    def test_partial_beat_rounds_up(self):
        bus = BusConfig(width=8, clock_divisor=4)
        assert bus.cycles_for(4) == 4

    def test_memory_bus_line(self):
        bus = BusConfig(width=8, clock_divisor=4)
        assert bus.cycles_for(64) == 32

    @pytest.mark.parametrize("width", [0, -8, 3, 12])
    def test_rejects_bad_width(self, width):
        # Must fail at construction with ConfigError, not surface later
        # as a ZeroDivisionError inside cycles_for().
        with pytest.raises(ConfigError):
            BusConfig(width=width)

    @pytest.mark.parametrize("divisor", [0, -2, 3])
    def test_rejects_bad_clock_divisor(self, divisor):
        with pytest.raises(ConfigError):
            BusConfig(clock_divisor=divisor)

    def test_rejects_bool_width(self):
        with pytest.raises(ConfigError):
            BusConfig(width=True)


class TestFuncUnitConfig:
    @pytest.mark.parametrize("field", ["int_alu", "mem_ports", "fp_add"])
    def test_rejects_nonpositive_counts(self, field):
        with pytest.raises(ConfigError):
            FuncUnitConfig(**{field: 0})

    @pytest.mark.parametrize("field", ["int_div_latency", "fp_mul_latency"])
    def test_rejects_nonpositive_latencies(self, field):
        with pytest.raises(ConfigError):
            FuncUnitConfig(**{field: -1})


class TestTLBConfig:
    def test_rejects_zero_entries(self):
        with pytest.raises(ConfigError):
            TLBConfig(entries=0)

    def test_rejects_bad_page(self):
        with pytest.raises(ConfigError):
            TLBConfig(entries=16, page_size=1000)

    def test_rejects_negative_miss_penalty(self):
        with pytest.raises(ConfigError):
            TLBConfig(entries=16, miss_penalty=-1)

    def test_zero_miss_penalty_allowed(self):
        assert TLBConfig(entries=16, miss_penalty=0).miss_penalty == 0


class TestMachineConfig:
    def test_table2_defaults(self):
        cfg = table2_config()
        assert cfg.dl1.size == 64 * 1024
        assert cfg.dl1.line == 32
        assert cfg.l2.size == 512 * 1024
        assert cfg.l2.latency == 12
        assert cfg.memory_latency == 70
        assert cfg.max_outstanding_misses == 8
        assert cfg.window == 64
        assert cfg.lsq_entries == 32
        assert cfg.fetch_width == cfg.issue_width == cfg.commit_width == 4
        assert cfg.dtlb.entries == 32
        assert cfg.itlb.entries == 16
        assert cfg.prefetch.jqt_entries == 32
        assert cfg.prefetch.jump_interval == 8
        assert cfg.prefetch.prq_entries == 8
        assert cfg.prefetch.prefetch_buffer.size == 2048

    def test_perfect_flag(self):
        cfg = MachineConfig().perfect()
        assert cfg.perfect_data_memory
        assert not MachineConfig().perfect_data_memory

    def test_scaled_configs_keep_shape(self):
        for cfg in (small_config(), bench_config()):
            assert cfg.dl1.line == 32
            assert cfg.l2.line == 64
            assert cfg.l2.latency == 12
            assert cfg.memory_latency == 70
            assert cfg.dl1.size < cfg.l2.size or cfg is small_config()

    def test_frozen(self):
        cfg = MachineConfig()
        with pytest.raises(Exception):
            cfg.memory_latency = 100  # type: ignore[misc]


class TestSerde:
    """``to_dict`` is undone by ``with_overrides`` on a default machine:
    the dict's sections apply as section mappings."""

    def test_to_dict_round_trip(self):
        cfg = bench_config()
        assert MachineConfig().with_overrides(cfg.to_dict()) == cfg

    def test_json_round_trip(self):
        cfg = table2_config().with_overrides({"prefetch.jump_interval": 16})
        back = MachineConfig().with_overrides(
            json.loads(json.dumps(cfg.to_dict())))
        assert back == cfg

    def test_nested_configs_round_trip(self):
        d = bench_config().to_dict()
        assert d["dl1"]["size"] == bench_config().dl1.size
        assert d["prefetch"]["prefetch_buffer"]["line"] == 32
        assert MachineConfig().with_overrides(d).prefetch.prefetch_buffer \
            == bench_config().prefetch.prefetch_buffer

    def test_rejects_unknown_top_key(self):
        d = bench_config().to_dict()
        d["warp_drive"] = 9
        with pytest.raises(ConfigError, match="warp_drive"):
            MachineConfig().with_overrides(d)

    def test_rejects_unknown_nested_key(self):
        d = bench_config().to_dict()
        d["prefetch"]["mystery"] = 1
        with pytest.raises(ConfigError, match="prefetch.mystery"):
            MachineConfig().with_overrides(d)

    def test_rejects_wrong_leaf_type(self):
        d = bench_config().to_dict()
        d["memory_latency"] = "fast"
        with pytest.raises(ConfigError):
            MachineConfig().with_overrides(d)

    def test_from_dict_validates(self):
        # The name predates the removed ``from_dict``; the dict form now
        # goes through ``with_overrides``, which validates the same way.
        d = bench_config().to_dict()
        d["mem_bus"]["width"] = 12
        with pytest.raises(ConfigError):
            MachineConfig().with_overrides(d)


class TestWithOverrides:
    def test_dotted_paths(self):
        cfg = bench_config().with_overrides({
            "memory_latency": 280,
            "prefetch.jump_interval": 4,
            "dl1.latency": 2,
        })
        assert cfg.memory_latency == 280
        assert cfg.prefetch.jump_interval == 4
        assert cfg.dl1.latency == 2
        assert bench_config().memory_latency == 70  # original untouched

    def test_rejects_unknown_path(self):
        with pytest.raises(ConfigError, match="no_such"):
            bench_config().with_overrides({"no_such.field": 1})

    def test_rejects_unknown_leaf(self):
        with pytest.raises(ConfigError):
            bench_config().with_overrides({"prefetch.bogus": 1})

    def test_rejects_type_mismatch(self):
        with pytest.raises(ConfigError):
            bench_config().with_overrides({"memory_latency": "slow"})

    def test_rejects_path_through_leaf(self):
        with pytest.raises(ConfigError):
            bench_config().with_overrides({"memory_latency.deeper": 1})

    def test_section_leaf_checked_like_dotted_path(self):
        for overrides in ({"dl1": {"latency": 2.5}}, {"dl1.latency": 2.5}):
            with pytest.raises(ConfigError, match="dl1.latency"):
                bench_config().with_overrides(overrides)

    def test_nested_section_mapping_builds_sections(self):
        cfg = bench_config().with_overrides(
            {"prefetch": {"prefetch_buffer": {"size": 4096}}})
        assert cfg == bench_config().with_overrides(
            {"prefetch.prefetch_buffer.size": 4096})
        assert isinstance(cfg.prefetch.prefetch_buffer, CacheConfig)
        hash(cfg)  # a cell's config must stay hashable

    def test_validation_applies(self):
        with pytest.raises(ConfigError):
            bench_config().with_overrides({"l2_bus.width": 0})

    @pytest.mark.parametrize("form", ["section", "dotted"])
    def test_result_does_not_depend_on_key_order(self, form):
        # small's dl1 is 4096 B of 32 B lines: assoc 256 alone is an
        # invalid cache, size 16384 alone and both together are valid.
        # Each section is validated once, on its final values.
        def overrides(items):
            if form == "section":
                return {"dl1": dict(items)}
            return {f"dl1.{key}": value for key, value in items}

        items = [("size", 16384), ("assoc", 256)]
        forward = small_config().with_overrides(overrides(items))
        backward = small_config().with_overrides(overrides(items[::-1]))
        assert forward == backward
        assert (forward.dl1.size, forward.dl1.assoc) == (16384, 256)
        with pytest.raises(ConfigError, match=r"cache size 4096 not "
                           r"divisible by line\*assoc \(32\*256\)"):
            small_config().with_overrides(overrides([("assoc", 256)]))

    @pytest.mark.parametrize("path,bad,edge", [
        ("memory_latency", -40, 1),
        ("window", 0, 1),
        ("max_outstanding_misses", 0, 1),
        ("alloc_latency", -1, 0),
        ("prefetch.jump_interval", 0, 1),
        ("prefetch.jqt_entries", 0, 1),
        ("prefetch.prq_entries", 0, 1),
    ])
    def test_rejects_below_minimum(self, path, bad, edge):
        # Caught at construction, not as a wrong table or a mid-sweep
        # IndexError; the minimum itself is accepted.
        with pytest.raises(ConfigError, match=path.rpartition(".")[2]):
            bench_config().with_overrides({path: bad})
        assert bench_config().with_overrides({path: edge}).to_dict()


class TestMachineRegistry:
    def test_builtin_machines(self):
        assert machine_names() == ["table2", "bench", "small"]
        assert get_machine("bench") == bench_config()
        assert get_machine("table2") == table2_config()
        assert get_machine("small") == small_config()

    def test_fresh_instance_each_call(self):
        # Factories return new (equal) configs; no shared mutable state.
        assert get_machine("bench") is not get_machine("bench")

    def test_unknown_machine(self):
        with pytest.raises(ConfigError, match="unknown machine"):
            get_machine("cray")

    def test_duplicate_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            register_machine("bench", bench_config)

    def test_register_and_unregister(self):
        register_machine("test-tiny", small_config)
        try:
            assert get_machine("test-tiny") == small_config()
        finally:
            MACHINES.unregister("test-tiny")
        assert "test-tiny" not in MACHINES
