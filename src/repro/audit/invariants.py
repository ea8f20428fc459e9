"""Runtime invariant checking for the timing simulator.

An :class:`Auditor` rides along one simulation (``simulate(...,
audit=Auditor())``) and sweeps the model's conservation laws every
``interval`` commits plus once at the end of the run:

* **core** — commit cycles monotone, commit count strictly increasing,
  ROB occupancy ≤ window, LSQ occupancy ≤ lsq_entries, the issue-slot
  bookkeeping (``issued_at``) bounded by its prune policy;
* **memory hierarchy** — per level ``hits + misses == accesses``,
  resident lines ≤ capacity, TLB misses ≤ accesses, prefetch request
  accounting, and — under the non-blocking ``mshr_model`` settings — the
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

from ..errors import ReproError
from ..obs.outcomes import TIMELY

#: Slack the core's ``issued_at`` map may legitimately carry: the prune
#: keeps up to the threshold and runs every prune-interval commits, each
#: of which can add at most one entry.
_ISSUED_AT_BOUND = 200_000 + 65536


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
            for invariant, message in telemetry.outcomes.audit_check():
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
        if issued_at is not None and len(issued_at) > _ISSUED_AT_BOUND:
            self._record(
                "issued-at-bound",
                f"{len(issued_at)} issue-slot entries > "
                f"bound {_ISSUED_AT_BOUND}",
                n_committed, cycle, "core",
            )
        self._sweep_components(n_committed, cycle)

    def on_finish(self, model, n_committed: int, cycle: int) -> None:
        """End-of-run sweep, after telemetry finalization."""
        self._model = model
        self.checks += 1
        self._sweep_components(n_committed, cycle)

    # -- reporting ------------------------------------------------------

    def to_rows(self) -> list[dict]:
        return [
            {
                "invariant": v.invariant,
                "component": v.component,
                "commit": v.commit,
                "cycle": v.cycle,
                "message": v.message,
            }
            for v in self.violations
        ]


def corrupt_outcome_tracker(tracker, after: int = 8):
    """Deterministically mis-classify prefetch outcomes in ``tracker``.

    From the ``after``-th issue on, every ``record_issue`` also bumps the
    ``timely`` count without a matching issue/drop event — exactly the
    silent double-classification bug the ``outcome-conservation``
    invariant exists to catch.  Used by the audit drills (the
    ``harness/faults`` ``corrupt`` selector routes cells here) and the
    self-tests; returns the tracker for chaining.
    """
    real_record_issue = tracker.record_issue
    state = {"n": 0}

    def corrupted(line, kind, pc, issue, fill):
        real_record_issue(line, kind, pc, issue, fill)
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
    injected through the :class:`Auditor` hooks (the hierarchy itself is
    ``__slots__``-ed, so its methods cannot be wrapped per-instance),
    which also guarantees every corrupted sweep sees the skew.  Only
    meaningful under a non-blocking ``mshr_model`` — the law is gated off
    under ``blocking``.  Returns the auditor for chaining.
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
