"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from repro import Assembler, MachineConfig, small_config
from repro.config import CacheConfig
from repro.harness import ExperimentSpec, WorkloadSel, load_spec
from repro.isa.registers import A0, T0, T1, V0, ZERO
from repro.obs import TIMELY

#: The shipped experiment definitions (``examples/specs/*.toml``).
SPEC_DIR = Path(__file__).resolve().parents[1] / "examples" / "specs"


@pytest.fixture
def cfg() -> MachineConfig:
    """Small machine used by most timing tests."""
    return small_config()


@pytest.fixture
def tiny_cfg() -> MachineConfig:
    """Very small caches: forces misses with tiny footprints."""
    return MachineConfig(
        il1=CacheConfig(size=512, line=32, assoc=2, latency=1),
        dl1=CacheConfig(size=512, line=32, assoc=2, latency=1),
        l2=CacheConfig(size=2048, line=64, assoc=4, latency=12),
    )


def shipped_spec(
    name: str,
    workloads: tuple[str | WorkloadSel, ...] | None = None,
    **axis_values: tuple,
) -> ExperimentSpec:
    """The shipped ``examples/specs/<name>.toml`` at test sizes,
    optionally narrowed to ``workloads`` (a name keeps the file's own
    entry when it has one) and to the given values of its axes."""
    spec = load_spec(SPEC_DIR / f"{name}.toml")
    if workloads is not None:
        own = {w.name: w for w in spec.workloads}
        spec = replace(spec, workloads=tuple(
            w if isinstance(w, WorkloadSel) else own.get(w, WorkloadSel(w))
            for w in workloads
        ))
    unknown = set(axis_values) - {a.name for a in spec.axes}
    assert not unknown, f"{name} has no axis {sorted(unknown)}"
    spec = replace(spec, axes=tuple(
        replace(a, values=tuple(axis_values.get(a.name, a.values)))
        for a in spec.axes
    ))
    return spec.small()


class InterruptAfter:
    """Sweep progress hook that raises KeyboardInterrupt on its n-th
    narration — a Ctrl-C landing mid-sweep, after n cells finished."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.seen = 0

    def __call__(self, line: str) -> None:
        self.seen += 1
        if self.seen >= self.n:
            raise KeyboardInterrupt


def corrupt_outcome_tracker(tracker, after: int = 8):
    """Deterministically mis-classify prefetch outcomes in ``tracker``.

    From the ``after``-th issue on, every ``record_issue`` also bumps the
    ``timely`` count without a matching issue/drop event — exactly the
    silent double-classification bug the ``outcome-conservation``
    invariant exists to catch.  Returns the tracker for chaining.
    """
    real_record_issue = tracker.record_issue
    state = {"n": 0}

    def corrupted():
        real_record_issue()
        state["n"] += 1
        if state["n"] > after:
            tracker.counts[TIMELY] += 1  # spurious classification

    tracker.record_issue = corrupted
    return tracker


def corrupt_mshr_tracker(auditor, after: int = 0):
    """Deterministically skew the hierarchy's MSHR conservation counters.

    From the ``after``-th audit sweep on, every sweep first bumps
    ``mshrs_allocated`` without a matching allocation — the phantom-MSHR
    bug the ``mshr-conservation`` law exists to catch.  The corruption is
    injected through the :class:`~repro.audit.Auditor` hooks (the
    hierarchy itself is ``__slots__``-ed, so its methods cannot be
    wrapped per-instance), which also guarantees every corrupted sweep
    sees the skew.  Only meaningful under a non-blocking MSHR model — the
    law is gated off under ``blocking``, so the skew is inert there.
    Returns the auditor for chaining.
    """
    state = {"n": 0}

    def skew(model) -> None:
        state["n"] += 1
        if state["n"] > after:
            model.hierarchy.stats.mshrs_allocated += 1

    real_on_commit = auditor.on_commit
    real_on_finish = auditor.on_finish

    def corrupted_commit(n_committed, cycle, *args, **kwargs):
        skew(auditor._model)
        real_on_commit(n_committed, cycle, *args, **kwargs)

    def corrupted_finish(model, n_committed, cycle):
        skew(model)
        real_on_finish(model, n_committed, cycle)

    auditor.on_commit = corrupted_commit
    auditor.on_finish = corrupted_finish
    return auditor


def assemble_loop_sum(n: int):
    """Sum 1..n in a register loop; returns (program, result_addr)."""
    a = Assembler()
    res = a.word(0)
    a.label("main")
    a.li(T0, 0)   # acc
    a.li(T1, n)
    a.label("loop")
    a.beqz(T1, "done")
    a.add(T0, T0, T1)
    a.addi(T1, T1, -1)
    a.j("loop")
    a.label("done")
    a.li(A0, res)
    a.sw(T0, A0, 0)
    a.halt()
    return a.assemble("loop_sum"), res


def assemble_list_walk(n: int, node_bytes: int = 12):
    """Builds an n-node linked list ({value@0, next@4}) then walks it,
    summing values; returns (program, result_addr)."""
    a = Assembler()
    res = a.word(0)
    head = a.word(0)
    a.label("main")
    a.li(T0, n)
    a.label("build")
    a.beqz(T0, "walk")
    a.alloc(T1, ZERO, node_bytes)
    a.sw(T0, T1, 0)
    a.li(A0, head)
    a.lw(V0, A0, 0)
    a.sw(V0, T1, 4)
    a.sw(T1, A0, 0)
    a.addi(T0, T0, -1)
    a.j("build")
    a.label("walk")
    a.li(T0, 0)
    a.li(A0, head)
    a.lw(T1, A0, 0, tag="lds")
    a.label("wloop")
    a.beqz(T1, "done")
    a.lw(V0, T1, 0, pad=16, tag="lds")
    a.add(T0, T0, V0)
    a.lw(T1, T1, 4, pad=16, tag="lds")
    a.j("wloop")
    a.label("done")
    a.li(A0, res)
    a.sw(T0, A0, 0)
    a.halt()
    return a.assemble("list_walk"), res
