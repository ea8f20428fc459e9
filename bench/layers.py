"""Per-layer host-time tracing, installed from outside the simulator.

:class:`LayerTracer` replaces the public entry points of each simulator
layer with timing wrappers at class (or module) level, before any model
is built, and restores the originals on :meth:`LayerTracer.uninstall`.
Nothing under ``src/`` is edited.  Hot-path calls (one per simulated
instruction or memory access) are only counted and summed; each sweep
cell is kept as one span carrying its per-layer totals, written out as
a Chrome trace when the benchmark ends.

A layer's self time is the time inside its wrapped calls minus the time
inside wrapped calls they made, so the layers' self times add up to the
wall time of the traced sweep passes.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.cpu.timing import TimingModel
from repro.harness import backends
from repro.harness import spec as spec_module
from repro.harness.cache import ResultCache
from repro.isa.interpreter import Interpreter
from repro.mem.hierarchy import MemoryHierarchy
from repro.obs.outcomes import OutcomeTracker
from repro.prefetch.base import PrefetchEngine
from repro.prefetch.engines import ENGINES
from repro.workloads.base import Workload

LAYERS = ("isa", "cpu", "mem", "prefetch", "obs", "workloads", "harness")

MEM_CALLS = ("data_access", "inst_fetch", "prefetch_request", "jp_store",
             "probe_cached")
PREFETCH_HOOKS = ("on_load_issue", "on_load_commit", "on_sw_prefetch")
OBS_HOOKS = ("record_issue", "record_drop", "on_demand", "on_evict", "finalize")


def _engine_hook_owners() -> list[tuple[type, str]]:
    """``(class, hook)`` for every hook body a registered prefetch engine
    can reach; an inherited body is wrapped once, where it is defined."""
    owners: dict[tuple[type, str], None] = {}
    for engine in ENGINES.as_dict().values():
        for klass in engine.__mro__:
            if issubclass(klass, PrefetchEngine):
                for hook in PREFETCH_HOOKS:
                    if hook in vars(klass):
                        owners[(klass, hook)] = None
    return list(owners)


class LayerTracer:
    """Self time per layer, plus inclusive time and calls per entry point."""

    def __init__(self) -> None:
        # One-element lists: the wrappers close over them, which is
        # cheaper on the hot path than dict lookups.
        self._self = {layer: [0.0] for layer in LAYERS}
        self._tally: dict[str, list] = {}   # key -> [calls, inclusive s]
        self._insts = [0]
        # Total time spent inside wrapped calls so far.  A call's child
        # time is how far this clock advanced while it ran, so self time
        # needs no span stack.
        self._inside = [0.0]
        self.spans: list[dict[str, Any]] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self._root = ""
        self._t0 = time.perf_counter()

    @property
    def self_s(self) -> dict[str, float]:
        return {layer: acc[0] for layer, acc in self._self.items()}

    @property
    def calls(self) -> dict[str, int]:
        return {key: tally[0] for key, tally in self._tally.items()}

    @property
    def inclusive_s(self) -> dict[str, float]:
        return {key: tally[1] for key, tally in self._tally.items()}

    @property
    def insts(self) -> int:
        return self._insts[0]

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        targets: list[tuple[Any, str, str]] = [(TimingModel, "run", "cpu")]
        targets += [(MemoryHierarchy, m, "mem") for m in MEM_CALLS]
        targets += [(k, h, "prefetch") for k, h in _engine_hook_owners()]
        targets += [(OutcomeTracker, h, "obs") for h in OBS_HOOKS]
        targets += [(Workload, "build", "workloads")]
        targets += [(ResultCache, "get", "harness"),
                    (ResultCache, "put", "harness"),
                    (spec_module, "compile_spec", "harness"),
                    (spec_module, "assemble_rows", "harness")]
        # Engine classes defining the same hook share one counter.
        for owner, attr, layer in targets:
            self._patch(owner, attr, self._wrap(
                layer, f"{layer}.{attr}", getattr(owner, attr)))
        self._patch(Interpreter, "run", self._wrap_interpreter(Interpreter.run))
        # The serial backend calls run_cell through its module global.
        self._patch(backends, "run_cell", self._wrap_cell(backends.run_cell))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, layer: str, key: str, fn: Callable) -> Callable:
        inside, acc, perf = self._inside, self._self[layer], time.perf_counter
        tally = self._tally.setdefault(key, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = inside[0]
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                acc[0] += dt - (inside[0] - before)
                inside[0] = before + dt
                tally[0] += 1
                tally[1] += dt

        return wrapper

    def _wrap_interpreter(self, run: Callable) -> Callable:
        """Time each ``next()`` on the functional interpreter's stream."""
        inside, acc, insts = self._inside, self._self["isa"], self._insts
        perf = time.perf_counter

        @functools.wraps(run)
        def traced_run(interp):
            step = run(interp).__next__
            n = 0
            spent = 0.0
            try:
                while True:
                    t0 = perf()
                    try:
                        record = step()
                    except StopIteration:
                        spent += perf() - t0
                        return
                    spent += perf() - t0
                    n += 1
                    yield record
            finally:
                # Settled once per run: the timing loop drains the stream
                # before its own wrapped call returns.
                acc[0] += spent
                inside[0] += spent
                insts[0] += n

        return traced_run

    def _wrap_cell(self, run_cell: Callable) -> Callable:
        """One span per sweep cell, carrying its per-layer totals."""
        timed = self._wrap("harness", "harness.run_cell", run_cell)

        @functools.wraps(run_cell)
        def traced_cell(spec, *args, **kwargs):
            before = self.snapshot()
            start = time.perf_counter()
            out = timed(spec, *args, **kwargs)
            end = time.perf_counter()
            after = self.snapshot()
            self._span(spec.describe(), start, end, self._root, {
                k: v - before[k] for k, v in after.items() if v != before[k]
            })
            return out

        return traced_cell

    # -- spans ------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Current totals: layer self seconds, calls, instructions."""
        snap: dict[str, float] = {
            f"{layer}.self_s": s for layer, s in self.self_s.items()
        }
        snap.update(self.calls)
        snap["isa.insts"] = self.insts
        return snap

    @contextlib.contextmanager
    def root(self, name: str) -> Iterator[None]:
        """A harness-layer span covering one whole traced sweep pass."""
        before = self._inside[0]
        self._root = name
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._self["harness"][0] += (end - start) - (self._inside[0] - before)
            self._inside[0] = before + (end - start)
            self._root = ""
            self._span(name, start, end, "", {})

    def _span(self, name: str, start: float, end: float, parent: str,
              args: dict[str, Any]) -> None:
        self.spans.append({"name": name, "parent": parent, "start": start,
                           "end": end, "args": args})

    def write_chrome_trace(self, path: Path, meta: dict[str, Any]) -> None:
        """The kept spans as Chrome ``trace_event`` JSON."""
        events = [{
            "name": s["name"], "cat": "cell" if s["parent"] else "sweep",
            "ph": "X", "pid": 1, "tid": 1,
            "ts": round((s["start"] - self._t0) * 1e6, 3),
            "dur": round((s["end"] - s["start"]) * 1e6, 3),
            "args": {"id": i, "parent": s["parent"], **s["args"]},
        } for i, s in enumerate(self.spans)]
        path.write_text(json.dumps(
            {"traceEvents": events, "otherData": meta}, indent=1
        ) + "\n")
