"""Machine configuration dataclasses.

The defaults mirror Table 2 of the paper (the "Simulated Machine
Configuration" used for every experiment).  All sizes are in bytes and all
latencies in core cycles unless noted otherwise.

Every config dataclass is serializable (``to_dict``/``from_dict`` with
strict unknown-key rejection) and supports declarative dotted-path
overrides::

    bench_config().with_overrides({"prefetch.jump_interval": 4,
                                   "memory_latency": 280})

which is how experiment spec files (:mod:`repro.harness.spec`) describe
machine variations.  Named machines live in the :data:`MACHINES`
registry ("table2", "bench", "small"); :func:`register_machine` adds new
ones.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping, get_type_hints

from .errors import ConfigError
from .registry import Registry

#: MSHR models of the memory hierarchy, in fidelity order (see
#: :mod:`repro.mem.hierarchy`): ``blocking`` reproduces the historical
#: capped-outstanding-misses behavior bit-exactly, ``coalescing`` adds
#: per-line MSHR entries with secondary-miss target lists and dirty-victim
#: bus contention, ``full`` adds critical-word-first fill and
#: hit-during-refill on top of coalescing.
MSHR_MODELS: tuple[str, ...] = ("blocking", "coalescing", "full")


def _check_power_of_two(name: str, value: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool) \
            or value <= 0 or value & (value - 1):
        raise ConfigError(f"{name} must be a positive power of two, got {value}")


def _check_positive(name: str, value: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise ConfigError(f"{name} must be a positive integer, got {value}")


# ----------------------------------------------------------------------
# Serialization and dotted-path overrides (shared by every config class)
# ----------------------------------------------------------------------

def _leaf_compatible(current: Any, value: Any) -> bool:
    """Loose type agreement for an override leaf: ints for ints, numbers
    for floats, bools for bools — rejects category errors (a dict where a
    latency goes) without blocking e.g. an int for a float field."""
    if isinstance(current, bool):
        return isinstance(value, bool)
    if isinstance(current, int):
        return isinstance(value, int) and not isinstance(value, bool)
    if isinstance(current, float):
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, type(current))


def _config_from_dict(cls: type, data: Any, context: str = "") -> Any:
    """Strict recursive constructor: unknown keys and malformed nesting
    raise :class:`ConfigError` instead of being silently dropped."""
    if not isinstance(data, Mapping):
        raise ConfigError(
            f"{cls.__name__} expects a mapping, got {type(data).__name__}"
        )
    hints = get_type_hints(cls)
    known = {f.name for f in dataclasses.fields(cls)}
    kwargs: dict[str, Any] = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(
                f"unknown config key {context + str(key)!r} "
                f"for {cls.__name__}; known keys: {sorted(known)}"
            )
        ftype = hints[key]
        if dataclasses.is_dataclass(ftype):
            value = _config_from_dict(ftype, value, context=f"{context}{key}.")
        elif not _annotation_compatible(ftype, value):
            raise ConfigError(
                f"config key {context + str(key)!r} expects "
                f"{ftype.__name__}, got {type(value).__name__} ({value!r})"
            )
        kwargs[key] = value
    return cls(**kwargs)


def _annotation_compatible(ftype: type, value: Any) -> bool:
    """Leaf agreement against the declared field type (same rules as
    :func:`_leaf_compatible`, keyed on the annotation instead of the
    current value)."""
    if ftype is bool:
        return isinstance(value, bool)
    if ftype is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if ftype is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    try:
        return isinstance(value, ftype)
    except TypeError:  # exotic annotation (e.g. parametrized generics)
        return True


def _override_section(current: Any, path: str, value: Any) -> Any:
    """A mapping assigned to a section path merges field-by-field."""
    if not isinstance(value, Mapping):
        raise ConfigError(
            f"config path {path!r} names a {type(current).__name__} "
            "section; assign a mapping of its fields or extend the path"
        )
    known = {f.name for f in dataclasses.fields(current)}
    unknown = set(value) - known
    if unknown:
        raise ConfigError(
            f"unknown config key(s) {sorted(unknown)} under {path!r}; "
            f"known keys: {sorted(known)}"
        )
    return replace(current, **dict(value))


def _override_path(obj: Any, full: str, parts: list[str], value: Any) -> Any:
    name = parts[0]
    if not dataclasses.is_dataclass(obj) or not name or \
            name not in {f.name for f in dataclasses.fields(obj)}:
        owner = type(obj).__name__
        raise ConfigError(
            f"unknown config path {full!r}: {owner} has no field {name!r}"
        )
    current = getattr(obj, name)
    if len(parts) > 1:
        if not dataclasses.is_dataclass(current):
            raise ConfigError(
                f"config path {full!r} descends into {name!r}, "
                "which is not a config section"
            )
        value = _override_path(current, full, parts[1:], value)
    elif dataclasses.is_dataclass(current):
        value = _override_section(current, full, value)
    elif not _leaf_compatible(current, value):
        raise ConfigError(
            f"config path {full!r} expects {type(current).__name__}, "
            f"got {type(value).__name__} ({value!r})"
        )
    return replace(obj, **{name: value})


class SerializableConfig:
    """Mixin: dict round-trip plus dotted-path overrides.

    ``from_dict(cfg.to_dict()) == cfg`` holds for every config class;
    both directions validate (construction runs ``__post_init__``,
    parsing rejects unknown keys)."""

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe nested dict of every field (the cache-key form)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SerializableConfig":
        """Inverse of :meth:`to_dict`; missing keys take field defaults,
        unknown keys raise :class:`~repro.errors.ConfigError`."""
        return _config_from_dict(cls, data)

    def with_overrides(
        self, overrides: Mapping[str, Any] | None
    ) -> "SerializableConfig":
        """A copy with dotted-path fields replaced, e.g.
        ``{"prefetch.jump_interval": 4, "dl1.size": 16384}``.  Paths are
        validated against the dataclass tree; a path ending at a nested
        section accepts a mapping of that section's fields."""
        cfg = self
        for path, value in (overrides or {}).items():
            cfg = _override_path(cfg, path, str(path).split("."), value)
        return cfg


# ----------------------------------------------------------------------
# Config dataclasses
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CacheConfig(SerializableConfig):
    """Geometry and access latency of one set-associative cache."""

    size: int
    line: int
    assoc: int
    latency: int

    def __post_init__(self) -> None:
        _check_power_of_two("cache size", self.size)
        _check_power_of_two("cache line", self.line)
        if self.assoc <= 0:
            raise ConfigError(f"associativity must be positive, got {self.assoc}")
        if self.size % (self.line * self.assoc):
            raise ConfigError(
                f"cache size {self.size} not divisible by line*assoc "
                f"({self.line}*{self.assoc})"
            )
        if self.latency < 0:
            raise ConfigError("cache latency must be non-negative")

    @property
    def sets(self) -> int:
        return self.size // (self.line * self.assoc)


@dataclass(frozen=True)
class TLBConfig(SerializableConfig):
    """A fully-associative TLB with hardware miss handling."""

    entries: int
    page_size: int = 4096
    miss_penalty: int = 30

    def __post_init__(self) -> None:
        _check_power_of_two("TLB page size", self.page_size)
        if self.entries <= 0:
            raise ConfigError("TLB must have at least one entry")
        if self.miss_penalty < 0:
            raise ConfigError(
                f"TLB miss penalty must be non-negative, got {self.miss_penalty}"
            )


@dataclass(frozen=True)
class BusConfig(SerializableConfig):
    """A bus transferring ``width`` bytes per bus cycle.

    ``clock_divisor`` is the ratio of core frequency to bus frequency; the
    paper's L2 bus runs at 1/2 core frequency and the memory bus at 1/4.
    """

    width: int = 8
    clock_divisor: int = 2

    def __post_init__(self) -> None:
        _check_power_of_two("bus width", self.width)
        _check_power_of_two("bus clock divisor", self.clock_divisor)

    def cycles_for(self, nbytes: int) -> int:
        """Core cycles the bus is occupied transferring ``nbytes``."""
        beats = -(-nbytes // self.width)  # ceil division
        return beats * self.clock_divisor


@dataclass(frozen=True)
class FuncUnitConfig(SerializableConfig):
    """Counts and latencies of the functional unit pool (Table 2)."""

    int_alu: int = 4
    int_alu_latency: int = 1
    int_mul: int = 1
    int_mul_latency: int = 3
    int_div: int = 1
    int_div_latency: int = 20
    fp_add: int = 2
    fp_add_latency: int = 2
    fp_mul: int = 1
    fp_mul_latency: int = 4
    fp_div: int = 1
    fp_div_latency: int = 24
    mem_ports: int = 2
    mem_port_latency: int = 1

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            label = "latency" if f.name.endswith("_latency") else "count"
            _check_positive(
                f"functional unit {label} {f.name!r}", getattr(self, f.name)
            )


@dataclass(frozen=True)
class BranchPredConfig(SerializableConfig):
    """8K-entry combined gshare/bimodal predictor with a 2K 4-way BTB."""

    meta_entries: int = 8192
    bimodal_entries: int = 8192
    gshare_entries: int = 8192
    history_bits: int = 10
    btb_entries: int = 2048
    btb_assoc: int = 4
    ras_entries: int = 16
    misprediction_penalty: int = 3
    """Front-end refill cycles after the branch resolves."""


@dataclass(frozen=True)
class PrefetchConfig(SerializableConfig):
    """Parameters of the DBP and jump-pointer hardware (Table 2)."""

    # Dependence predictor (DBP)
    dep_entries: int = 256
    dep_assoc: int = 4
    # Prefetch request queue / prefetch buffer
    prq_entries: int = 8
    prefetch_buffer: CacheConfig = field(
        default_factory=lambda: CacheConfig(size=2048, line=32, assoc=8, latency=1)
    )
    # Jump-pointer hardware
    jqt_entries: int = 32
    jump_interval: int = 8
    max_chain_depth: int = 8
    """Safety bound on recursively chained prefetches per trigger."""
    onchip_table_entries: int = 0
    """If non-zero, store jump-pointers in an on-chip table of this many
    entries instead of allocator padding (the Section 3.3 ablation)."""
    adaptive_interval: bool = False
    """Enable the adaptive per-PC jump interval (the paper's Section 6
    future-work item; see :mod:`repro.prefetch.adaptive`)."""
    adaptive_max_interval: int = 64

    def __post_init__(self) -> None:
        for name in ("prq_entries", "jqt_entries", "jump_interval"):
            _check_positive(f"prefetch.{name}", getattr(self, name))


@dataclass(frozen=True)
class MachineConfig(SerializableConfig):
    """Full simulated machine, defaulting to the paper's Table 2."""

    fetch_width: int = 4
    issue_width: int = 4
    commit_width: int = 4
    window: int = 64
    lsq_entries: int = 32
    front_pipeline_depth: int = 2
    """Cycles between fetch and dispatch (decode/rename)."""

    il1: CacheConfig = field(
        default_factory=lambda: CacheConfig(size=32 * 1024, line=32, assoc=2, latency=1)
    )
    dl1: CacheConfig = field(
        default_factory=lambda: CacheConfig(size=64 * 1024, line=32, assoc=2, latency=1)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(size=512 * 1024, line=64, assoc=4, latency=12)
    )
    memory_latency: int = 70
    max_outstanding_misses: int = 8
    mshr_model: str = "blocking"
    """MSHR behavior of the data-side memory hierarchy: one of
    :data:`MSHR_MODELS`.  ``blocking`` (the default) only caps outstanding
    misses; ``coalescing`` merges secondary misses into per-line MSHR
    entries and charges dirty-victim writebacks against demand bus slots;
    ``full`` additionally models critical-word-first fill and
    hit-during-refill."""
    itlb: TLBConfig = field(default_factory=lambda: TLBConfig(entries=16))
    dtlb: TLBConfig = field(default_factory=lambda: TLBConfig(entries=32))
    l2_bus: BusConfig = field(default_factory=lambda: BusConfig(width=8, clock_divisor=2))
    mem_bus: BusConfig = field(default_factory=lambda: BusConfig(width=8, clock_divisor=4))

    func_units: FuncUnitConfig = field(default_factory=FuncUnitConfig)
    branch_pred: BranchPredConfig = field(default_factory=BranchPredConfig)
    prefetch: PrefetchConfig = field(default_factory=PrefetchConfig)

    alloc_latency: int = 8
    """Charged latency of the ALLOC instruction (library allocator fast path)."""

    perfect_data_memory: bool = False
    """When True every data access costs one cycle; used for the paper's
    compute-time decomposition (memory stall = realistic - perfect)."""

    def __post_init__(self) -> None:
        if self.mshr_model not in MSHR_MODELS:
            raise ConfigError(
                f"unknown mshr_model {self.mshr_model!r}; "
                f"available: {list(MSHR_MODELS)}"
            )
        for name in ("window", "memory_latency", "max_outstanding_misses"):
            _check_positive(name, getattr(self, name))
        if self.alloc_latency < 0:
            raise ConfigError(
                f"alloc_latency must be non-negative, got {self.alloc_latency}"
            )

    def with_memory_latency(self, latency: int) -> "MachineConfig":
        """The Figure 7 sweep: same machine, different main-memory latency."""
        return self.with_overrides({"memory_latency": latency})

    def with_jump_interval(self, interval: int) -> "MachineConfig":
        return self.with_overrides({"prefetch.jump_interval": interval})

    def perfect(self) -> "MachineConfig":
        """Variant used to measure compute time (single-cycle data memory)."""
        return replace(self, perfect_data_memory=True)


# ----------------------------------------------------------------------
# Named machines
# ----------------------------------------------------------------------

#: Named machine registry: name -> zero-argument factory returning a
#: :class:`MachineConfig`.  Experiment specs select machines by name.
MACHINES: Registry[Callable[[], MachineConfig]] = Registry(
    "machine", error=ConfigError
)


def register_machine(
    name: str, factory: Callable[[], MachineConfig]
) -> Callable[[], MachineConfig]:
    """Add a named machine; returns ``factory`` so it can decorate."""
    return MACHINES.register(name, factory)


def get_machine(name: str) -> MachineConfig:
    """A fresh :class:`MachineConfig` for the named machine."""
    return MACHINES.get(name)()


def machine_names() -> list[str]:
    return MACHINES.names()


def table2_config() -> MachineConfig:
    """The paper's baseline machine (Table 2)."""
    return MachineConfig()


def bench_config() -> MachineConfig:
    """The experiment machine: Table 2's shape with capacities scaled down.

    The workload kernels run data sets scaled to pure-Python simulation
    speed (tens of KB instead of tens of MB), so cache capacities are
    scaled by the same factor: the ratios footprint/L1 and footprint/L2
    and all latencies match the paper's setup.  The buses are widened by
    the inverse factor of the kernels' higher miss density (scaled-down
    kernels miss more often per instruction than the full-size Olden runs)
    so the machine stays in the paper's latency-dominated regime instead
    of saturating on bandwidth.  See DESIGN.md, "Substitutions".
    """
    return MachineConfig(
        il1=CacheConfig(size=8 * 1024, line=32, assoc=2, latency=1),
        dl1=CacheConfig(size=8 * 1024, line=32, assoc=2, latency=1),
        l2=CacheConfig(size=16 * 1024, line=64, assoc=4, latency=12),
        l2_bus=BusConfig(width=32, clock_divisor=2),
        mem_bus=BusConfig(width=64, clock_divisor=4),
    )


def small_config() -> MachineConfig:
    """A scaled-down machine for fast unit tests.

    Keeps the Table-2 *shape* (two-level hierarchy, same line sizes and
    latencies) while shrinking capacities so small test workloads still
    exercise misses and replacements.
    """
    return MachineConfig(
        il1=CacheConfig(size=4 * 1024, line=32, assoc=2, latency=1),
        dl1=CacheConfig(size=4 * 1024, line=32, assoc=2, latency=1),
        l2=CacheConfig(size=32 * 1024, line=64, assoc=4, latency=12),
    )


register_machine("table2", table2_config)
register_machine("bench", bench_config)
register_machine("small", small_config)
