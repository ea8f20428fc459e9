"""Machine configuration validation, serialization, and derived
quantities, plus the named machine registry."""

import json

import pytest

from repro import ConfigError, MachineConfig, bench_config, small_config, table2_config
from repro.config import (
    ADAPTIVE_MAX_INTERVAL,
    MACHINES,
    BusConfig,
    CacheConfig,
    FuncUnitConfig,
    PrefetchConfig,
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


class TestPrefetchConfig:
    def test_adaptive_interval_starts_within_ceiling(self):
        # The adaptive table widens each PC's queue up to its ceiling and
        # starts it at jump_interval, so a start above the ceiling is a
        # machine the auditor's queue-depth law would flag.
        with pytest.raises(ConfigError, match="jump_interval 128"):
            PrefetchConfig(adaptive_interval=True, jump_interval=128)
        with pytest.raises(ConfigError, match="jump_interval"):
            small_config().with_overrides({
                "prefetch.adaptive_interval": True,
                "prefetch.jump_interval": ADAPTIVE_MAX_INTERVAL + 1,
            })
        at_ceiling = PrefetchConfig(adaptive_interval=True,
                                    jump_interval=ADAPTIVE_MAX_INTERVAL)
        assert at_ceiling.jump_interval == 64
        # A fixed interval has no ceiling.
        assert PrefetchConfig(jump_interval=128).jump_interval == 128


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
    def test_to_dict_round_trip(self):
        cfg = bench_config()
        assert MachineConfig.from_dict(cfg.to_dict()) == cfg

    def test_json_round_trip(self):
        cfg = table2_config().with_overrides({"prefetch.jump_interval": 16})
        back = MachineConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert back == cfg

    def test_nested_configs_round_trip(self):
        d = bench_config().to_dict()
        assert d["dl1"]["size"] == bench_config().dl1.size
        assert d["prefetch"]["prefetch_buffer"]["line"] == 32

    def test_rejects_unknown_top_key(self):
        d = bench_config().to_dict()
        d["warp_drive"] = 9
        with pytest.raises(ConfigError, match="warp_drive"):
            MachineConfig.from_dict(d)

    def test_rejects_unknown_nested_key(self):
        d = bench_config().to_dict()
        d["prefetch"]["mystery"] = 1
        with pytest.raises(ConfigError, match="prefetch.mystery"):
            MachineConfig.from_dict(d)

    def test_rejects_wrong_leaf_type(self):
        d = bench_config().to_dict()
        d["memory_latency"] = "fast"
        with pytest.raises(ConfigError):
            MachineConfig.from_dict(d)

    def test_from_dict_validates(self):
        d = bench_config().to_dict()
        d["mem_bus"]["width"] = 12
        with pytest.raises(ConfigError):
            MachineConfig.from_dict(d)


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

    def test_validation_applies(self):
        with pytest.raises(ConfigError):
            bench_config().with_overrides({"l2_bus.width": 0})

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
