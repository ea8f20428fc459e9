"""Deterministic fault injection for the sweep executor.

A :class:`FaultPlan` is a list of :class:`FaultSpec` rules, each matching
sweep cells by ``benchmark/variant/engine`` glob patterns and injecting
one failure mode for the first ``times`` attempts of every matching cell:

``crash``
    The worker dies abruptly.  In a pool worker this is ``os._exit`` —
    the pool breaks (``BrokenProcessPool``) and the executor must rebuild
    it; in-process (serial) execution raises :class:`InjectedCrash`
    instead, which surfaces through the same error-attempt path.
``hang``
    The worker sleeps past the executor's per-cell timeout (``seconds``
    per rule, else the plan's ``hang_seconds``).  A parallel executor
    must reap the hung worker; a serial executor detects the overrun
    after the fact.  Keep ``seconds`` finite so an executor with no
    timeout configured still terminates.
``transient``
    Raises :class:`TransientFault` — the "retryable blip" the executor's
    bounded-retry/backoff machinery exists for.
``corrupt``
    Does not fire in the worker at all: the executor clobbers the cell's
    on-disk cache entry before lookup, exercising the cache's
    corrupt-entry detection and the recompute path.

Determinism: whether a fault fires depends only on ``(spec, attempt)``
— no randomness, no wall clock — so a faulty sweep retried to success
must assemble rows bit-identical to a fault-free sweep.  Plans are plain
frozen dataclasses and pickle cleanly into pool workers.

Textual form (the CLI's ``--inject-faults``)::

    benchmark[/variant[/engine]]=kind[:times][@seconds]

comma- or semicolon-separated, e.g.
``treeadd=crash, health//hardware=transient:2, em3d/baseline=hang:1@2.5``.
Omitted selector parts default to ``*`` (match everything).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import TYPE_CHECKING

from ..errors import ReproError

if TYPE_CHECKING:  # pragma: no cover
    from .executor import RunSpec

#: Kinds injected inside the worker running the cell.
WORKER_FAULT_KINDS = ("crash", "hang", "transient")

FAULT_KINDS = WORKER_FAULT_KINDS + ("corrupt",)

#: Default sleep for ``hang`` rules that give no ``@seconds`` — long
#: enough to trip any sane timeout, short enough that a timeout-less
#: serial run still finishes.
DEFAULT_HANG_SECONDS = 30.0

#: Set by the pool-worker initializer so ``crash`` knows it may
#: ``os._exit`` without taking the whole test process down.
_IN_POOL_WORKER = False


def mark_pool_worker() -> None:
    """ProcessPoolExecutor initializer: this process is expendable."""
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True


class FaultPlanError(ReproError):
    """An ``--inject-faults`` plan failed to parse."""


class TransientFault(ReproError):
    """An injected retryable failure (the fault harness's 'blip')."""


class InjectedCrash(ReproError):
    """An injected worker death, softened to an exception because the
    cell ran in-process (serial mode) where ``os._exit`` would kill the
    harness itself."""


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule: selector globs + failure mode."""

    benchmark: str = "*"
    variant: str = "*"
    engine: str = "*"
    kind: str = "transient"
    times: int = 1
    seconds: float | None = None  # hang duration override

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if self.times < 1:
            raise FaultPlanError(f"fault times must be >= 1, got {self.times}")

    def matches(self, spec: "RunSpec") -> bool:
        return (
            fnmatchcase(spec.benchmark, self.benchmark)
            and fnmatchcase(spec.variant, self.variant)
            and fnmatchcase(spec.engine, self.engine)
        )

    def fires(self, spec: "RunSpec", attempt: int) -> bool:
        return attempt < self.times and self.matches(spec)

    def describe(self) -> str:
        sel = f"{self.benchmark}/{self.variant}/{self.engine}"
        extra = f"@{self.seconds}" if self.seconds is not None else ""
        return f"{sel}={self.kind}:{self.times}{extra}"


@dataclass(frozen=True)
class FaultPlan:
    """An ordered rule list; the first matching rule per cell wins."""

    specs: tuple[FaultSpec, ...] = ()
    hang_seconds: float = DEFAULT_HANG_SECONDS

    @classmethod
    def of(cls, *specs: FaultSpec, hang_seconds: float = DEFAULT_HANG_SECONDS
           ) -> "FaultPlan":
        return cls(tuple(specs), hang_seconds)

    @classmethod
    def parse(cls, text: str, hang_seconds: float = DEFAULT_HANG_SECONDS
              ) -> "FaultPlan":
        """Parse the ``--inject-faults`` mini-language (module docstring)."""
        specs = []
        for entry in text.replace(";", ",").split(","):
            entry = entry.strip()
            if not entry:
                continue
            selector, sep, action = entry.partition("=")
            if not sep or not selector.strip():
                raise FaultPlanError(
                    f"fault entry {entry!r} is not selector=kind[:times][@seconds]"
                )
            parts = [p.strip() or "*" for p in selector.strip().split("/")]
            if len(parts) > 3:
                raise FaultPlanError(
                    f"selector {selector!r} has more than benchmark/variant/engine"
                )
            parts += ["*"] * (3 - len(parts))
            action = action.strip()
            seconds: float | None = None
            if "@" in action:
                action, _, secs = action.partition("@")
                try:
                    seconds = float(secs)
                except ValueError:
                    raise FaultPlanError(f"bad seconds in fault entry {entry!r}")
            times = 1
            if ":" in action:
                action, _, n = action.partition(":")
                try:
                    times = int(n)
                except ValueError:
                    raise FaultPlanError(f"bad times in fault entry {entry!r}")
            specs.append(FaultSpec(*parts, kind=action, times=times,
                                   seconds=seconds))
        if not specs:
            raise FaultPlanError(f"fault plan {text!r} contains no rules")
        return cls(tuple(specs), hang_seconds)

    # ------------------------------------------------------------------

    def rule_for(self, spec: "RunSpec", attempt: int,
                 kinds: tuple[str, ...]) -> FaultSpec | None:
        for rule in self.specs:
            if rule.kind in kinds and rule.matches(spec):
                # First matching rule wins — even when exhausted, it
                # shadows later catch-alls for this cell.
                return rule if attempt < rule.times else None
        return None

    def fires(self, spec: "RunSpec", attempt: int) -> bool:
        """Will *any* worker-side fault fire for this attempt?  (The
        executor counts injections in the parent, where counters live.)"""
        return self.rule_for(spec, attempt, WORKER_FAULT_KINDS) is not None

    def corrupts(self, spec: "RunSpec", attempt: int = 0) -> bool:
        """Should the executor clobber this cell's cache entry?"""
        return self.rule_for(spec, attempt, ("corrupt",)) is not None

    def apply(self, spec: "RunSpec", attempt: int) -> None:
        """Worker-side injection point, called before the cell simulates.

        Raises / sleeps / exits according to the first matching rule;
        returns quietly when nothing fires.
        """
        rule = self.rule_for(spec, attempt, WORKER_FAULT_KINDS)
        if rule is None:
            return
        if rule.kind == "transient":
            raise TransientFault(
                f"injected transient failure (attempt {attempt}, "
                f"rule {rule.describe()})"
            )
        if rule.kind == "hang":
            time.sleep(rule.seconds if rule.seconds is not None
                       else self.hang_seconds)
            return
        # crash: die for real only when this process is a disposable
        # pool worker; otherwise degrade to an exception.
        if _IN_POOL_WORKER:
            os._exit(13)
        raise InjectedCrash(
            f"injected worker crash (attempt {attempt}, rule {rule.describe()})"
        )

    def describe(self) -> str:
        return "; ".join(rule.describe() for rule in self.specs)


def parse_fault_plan(text: str | None) -> FaultPlan | None:
    """CLI helper: ``None``/empty passes through as 'no faults'."""
    return FaultPlan.parse(text) if text else None


__all__ = [
    "DEFAULT_HANG_SECONDS",
    "FAULT_KINDS",
    "WORKER_FAULT_KINDS",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "InjectedCrash",
    "TransientFault",
    "mark_pool_worker",
    "parse_fault_plan",
]
