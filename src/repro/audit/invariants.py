"""Runtime invariant checking for the timing simulator.

An :class:`Auditor` rides along one simulation (``simulate(...,
audit=Auditor())``) and sweeps the model's conservation laws every
``interval`` commits plus once at the end of the run:

* **core** — commit cycles monotone, commit count strictly increasing,
  ROB occupancy ≤ window, LSQ occupancy ≤ lsq_entries, the issue-slot
  bookkeeping (``issued_at``) within ``window`` plus its prune cadence
  (:func:`repro.cpu.timing.issued_at_prune_cadence`), both read from the
  model's machine;
* **memory hierarchy** — per level ``hits + misses == accesses``,
  resident lines ≤ capacity, TLB misses ≤ accesses, prefetch request
  accounting, and — under the non-blocking MSHR models — the
  MSHR conservation laws (allocated == retired + outstanding, coalesce
  and per-entry target accounting, occupancy peak ≤
  ``max_outstanding_misses``); see
  :meth:`repro.mem.hierarchy.MemoryHierarchy.audit_check`;
* **prefetch engine** — PRQ occupancy ≤ capacity, the DBP re-chase table
  bounded, JQT/jump-queue occupancy ≤ capacity (see the ``audit_check``
  overrides in :mod:`repro.prefetch.engines`);
* **outcome taxonomy** — every issued or dropped prefetch classified
  exactly once across timely/late/early-evicted/useless/dropped (see
  :meth:`repro.obs.outcomes.OutcomeTracker.audit_check`);
* **CPI-stack conservation** — when a profiler rides along, its
  attribution buckets must sum exactly to the commit front (see
  :meth:`repro.obs.profile.Profiler.audit_check`).

Violations become structured :class:`AuditViolation` records, counted in
the run's :class:`~repro.obs.metrics.MetricRegistry` (``audit.checks``,
``audit.violations``, ``audit.violation.<invariant>``) and mirrored into
the event trace when one is attached.  ``strict=True`` escalates the
first violation to an :class:`AuditError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cpu.timing import issued_at_prune_cadence
from ..errors import ReproError


class AuditError(ReproError):
    """A conservation-law violation escalated by ``Auditor(strict=True)``."""


@dataclass(frozen=True)
class AuditViolation:
    """One violated invariant, with where and when it was observed."""

    invariant: str
    message: str
    commit: int
    cycle: int
    component: str = "core"

    def describe(self) -> str:
        return (
            f"[{self.component}] {self.invariant} at commit "
            f"{self.commit} (cycle {self.cycle}): {self.message}"
        )


@dataclass
class Auditor:
    """Opt-in invariant sweeper for one :class:`TimingModel` run.

    ``interval`` is the commit cadence (the core calls
    :meth:`on_commit` every ``interval``-th commit through
    :func:`repro.cpu.timing.periodic_due` semantics — never at commit
    zero); ``max_violations`` caps the stored record list so a
    systematically-broken run cannot exhaust memory (the counters keep
    counting past the cap).
    """

    interval: int = 2048
    strict: bool = False
    max_violations: int = 256
    violations: list[AuditViolation] = field(default_factory=list)
    checks: int = 0

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ValueError(f"audit interval must be >= 1, got {self.interval}")
        self._model = None
        self._last_cycle = 0
        self._last_commit = 0
        self._counted = 0

    # -- wiring ---------------------------------------------------------

    def attach(self, model) -> None:
        """Called by :meth:`TimingModel.run` before the commit loop."""
        self._model = model
        self._last_cycle = 0
        self._last_commit = 0

    @property
    def ok(self) -> bool:
        return self._counted == 0

    @property
    def violation_count(self) -> int:
        return self._counted

    # -- recording ------------------------------------------------------

    def _record(
        self, invariant: str, message: str, commit: int, cycle: int,
        component: str,
    ) -> None:
        violation = AuditViolation(invariant, message, commit, cycle, component)
        self._counted += 1
        if len(self.violations) < self.max_violations:
            self.violations.append(violation)
        telemetry = getattr(self._model, "telemetry", None)
        if telemetry is not None:
            telemetry.registry.counter(
                "audit.violations", help="conservation-law violations observed"
            ).inc()
            telemetry.registry.counter(
                f"audit.violation.{invariant}",
                help="violations of one named invariant",
            ).inc()
            if telemetry.trace is not None:
                telemetry.trace.instant(
                    "audit-violation", cycle, cat="core",
                    invariant=invariant, component=component, message=message,
                )
        if self.strict:
            raise AuditError(violation.describe())

    def _sweep_components(self, commit: int, cycle: int) -> None:
        model = self._model
        for invariant, message in model.hierarchy.audit_check():
            self._record(invariant, message, commit, cycle, "hierarchy")
        for invariant, message in model.engine.audit_check(cycle):
            self._record(invariant, message, commit, cycle, "engine")
        profiler = getattr(model, "profiler", None)
        if profiler is not None:
            for invariant, message in profiler.audit_check(cycle):
                self._record(invariant, message, commit, cycle, "profiler")
        telemetry = getattr(model, "telemetry", None)
        if telemetry is not None:
            pending = model.hierarchy.prefetches_pending
            for invariant, message in telemetry.outcomes.audit_check(pending):
                self._record(invariant, message, commit, cycle, "outcomes")

    # -- hook sites (called by TimingModel.run) -------------------------

    def on_commit(
        self,
        n_committed: int,
        cycle: int,
        rob=None,
        lsq=None,
        issued_at=None,
    ) -> None:
        """Periodic sweep: core-loop structures plus every component.

        ``rob``/``lsq`` hold the commit cycles of the instructions (memory
        instructions) in flight when the latest one dispatched.
        ``TimingModel`` draws them from its ``window``/``lsq_entries``
        rings, so these checks guard the ring sizing; they are not an
        independent proof that dispatch honours the window.
        """
        self.checks += 1
        telemetry = getattr(self._model, "telemetry", None)
        if telemetry is not None:
            telemetry.registry.counter(
                "audit.checks", help="invariant sweeps performed"
            ).inc()
        if cycle < self._last_cycle:
            self._record(
                "cycle-monotone",
                f"commit cycle went backwards: {self._last_cycle} -> {cycle}",
                n_committed, cycle, "core",
            )
        self._last_cycle = cycle
        if n_committed <= self._last_commit:
            self._record(
                "commit-count-increasing",
                f"commit count did not advance: "
                f"{self._last_commit} -> {n_committed}",
                n_committed, cycle, "core",
            )
        self._last_commit = n_committed
        cfg = self._model.cfg
        if rob is not None and len(rob) > cfg.window:
            self._record(
                "rob-occupancy",
                f"{len(rob)} ROB entries > window {cfg.window}",
                n_committed, cycle, "core",
            )
        if lsq is not None and len(lsq) > cfg.lsq_entries:
            self._record(
                "lsq-occupancy",
                f"{len(lsq)} LSQ entries > capacity {cfg.lsq_entries}",
                n_committed, cycle, "core",
            )
        if issued_at is not None:
            # A prune leaves at most ``window`` live slots; each commit
            # until the next one adds at most one.
            bound = cfg.window + issued_at_prune_cadence(cfg.window)
            if len(issued_at) > bound:
                self._record(
                    "issued-at-bound",
                    f"{len(issued_at)} issue-slot entries > bound {bound}",
                    n_committed, cycle, "core",
                )
        self._sweep_components(n_committed, cycle)

    def on_finish(self, model, n_committed: int, cycle: int) -> None:
        """End-of-run sweep, after telemetry finalization."""
        self._model = model
        self.checks += 1
        self._sweep_components(n_committed, cycle)
