"""Prefetch engines: the paper's four schemes plus the scheme zoo."""

from .adaptive import AdaptiveJumpQueueTable, AdaptiveStats
from .base import EngineStats, PrefetchEngine, SoftwarePrefetchEngine
from .bounded import BoundedClockMap
from .dependence import DependencePredictor, ValueCorrelator
from .engines import (
    ENGINES,
    CooperativeEngine,
    DBPEngine,
    HardwareJPPEngine,
    engine_names,
    register_engine,
)
from .jqt import JumpPointerStorage, JumpQueueTable
from .zoo import (
    ContentDirectedEngine,
    ForesightEngine,
    PointerChaseEngine,
    StrideEngine,
)

__all__ = [
    "AdaptiveJumpQueueTable",
    "AdaptiveStats",
    "BoundedClockMap",
    "ContentDirectedEngine",
    "CooperativeEngine",
    "DBPEngine",
    "DependencePredictor",
    "ENGINES",
    "engine_names",
    "ForesightEngine",
    "register_engine",
    "EngineStats",
    "HardwareJPPEngine",
    "JumpPointerStorage",
    "JumpQueueTable",
    "PointerChaseEngine",
    "PrefetchEngine",
    "SoftwarePrefetchEngine",
    "StrideEngine",
    "ValueCorrelator",
]
