"""Per-prefetch outcome classification (the paper's Section-5 taxonomy).

Every issued prefetch eventually resolves to exactly one outcome:

* ``timely``        — the demand access found the data already filled;
* ``late``          — the demand access arrived while the fill was still
                      in flight (latency partially hidden);
* ``early-evicted`` — the prefetched line was evicted before any use;
* ``useless``       — never referenced by the end of the run;
* ``dropped``       — rejected at the prefetch request queue (never issued).
"""

from __future__ import annotations

from .metrics import Histogram, MetricRegistry, exponential_buckets

TIMELY = "timely"
LATE = "late"
EARLY_EVICTED = "early-evicted"
USELESS = "useless"
DROPPED = "dropped"

#: The five terminal outcomes, in reporting order.
OUTCOMES = (TIMELY, LATE, EARLY_EVICTED, USELESS, DROPPED)

#: Distance (cycles between fill completion and demand use) buckets.
DISTANCE_BOUNDS = exponential_buckets(1, 2, 17)  # 1 .. 65536


def _empty_counts() -> dict[str, int]:
    return {o: 0 for o in OUTCOMES}


class OutcomeTracker:
    """Accumulates terminal outcomes per engine-kind and per trigger PC.

    The prefetch engine reports issues and drops; the memory hierarchy
    reports demand uses and evictions of prefetched lines; whatever is
    still outstanding when :meth:`finalize` runs was never used.
    """

    def __init__(self, registry: MetricRegistry | None = None) -> None:
        self.counts = _empty_counts()
        self.by_kind: dict[str, dict[str, int]] = {}
        self.by_pc: dict[int, dict[str, int]] = {}
        # Raw event totals, kept separately from the classified counts so
        # the audit layer can assert the conservation law: every recorded
        # event is classified exactly once (see :meth:`audit_check`).
        self.issued = 0
        self.dropped = 0
        self.finalized = False
        # line -> (kind, pc, issue_time, fill_time)
        self._outstanding: dict[int, tuple[str, int | None, int, int]] = {}
        if registry is not None:
            self.distance: Histogram | None = registry.histogram(
                "prefetch.to_demand_distance_cycles",
                DISTANCE_BOUNDS,
                help="cycles between prefetch fill completion and demand use",
            )
        else:
            self.distance = None

    # -- accumulation ---------------------------------------------------

    def _count(self, outcome: str, kind: str, pc: int | None) -> None:
        self.counts[outcome] += 1
        k = self.by_kind.get(kind)
        if k is None:
            k = self.by_kind[kind] = _empty_counts()
        k[outcome] += 1
        if pc is not None:
            p = self.by_pc.get(pc)
            if p is None:
                p = self.by_pc[pc] = _empty_counts()
            p[outcome] += 1

    # -- event sources --------------------------------------------------

    def record_issue(
        self, line: int, kind: str, pc: int | None, issue: int, fill: int
    ) -> None:
        """An actual (non-redundant) prefetch of ``line`` was issued."""
        self.issued += 1
        old = self._outstanding.get(line)
        if old is not None:
            # Superseded before use: the earlier fetch of this line did
            # nothing for the program.
            self._count(USELESS, old[0], old[1])
        self._outstanding[line] = (kind, pc, issue, fill)

    def record_drop(self, kind: str, pc: int | None) -> None:
        """A prefetch request was rejected at the full PRQ."""
        self.dropped += 1
        self._count(DROPPED, kind, pc)

    def on_demand(self, line: int, time: int) -> str | None:
        """A demand access hit prefetched data in ``line`` at ``time``."""
        rec = self._outstanding.pop(line, None)
        if rec is None:
            return None
        kind, pc, __, fill = rec
        outcome = LATE if time < fill else TIMELY
        if outcome is TIMELY and self.distance is not None:
            self.distance.observe(time - fill)
        self._count(outcome, kind, pc)
        return outcome

    def on_evict(self, line: int) -> str | None:
        """``line`` was evicted (L1 or prefetch buffer) before any use."""
        rec = self._outstanding.pop(line, None)
        if rec is None:
            return None
        self._count(EARLY_EVICTED, rec[0], rec[1])
        return EARLY_EVICTED

    def finalize(self) -> None:
        """End of run: all still-outstanding prefetches were useless."""
        for kind, pc, __, ___ in self._outstanding.values():
            self._count(USELESS, kind, pc)
        self._outstanding.clear()
        self.finalized = True

    # -- auditing ---------------------------------------------------------

    def audit_check(self) -> list[tuple[str, str]]:
        """Invariant sweep for :class:`repro.audit.Auditor`.

        Returns ``(invariant, message)`` pairs for every violated law:

        * **outcome-conservation** — every issued or dropped prefetch is
          classified exactly once; mid-run the difference is exactly the
          still-outstanding set, after :meth:`finalize` it is zero.
        * **outcome-nonnegative** — no classified count ever decreases
          below zero (a double-pop would show up here).
        """
        violations: list[tuple[str, str]] = []
        classified = self.total
        outstanding = len(self._outstanding)
        if self.issued + self.dropped != classified + outstanding:
            violations.append((
                "outcome-conservation",
                f"{self.issued} issued + {self.dropped} dropped != "
                f"{classified} classified + {outstanding} outstanding",
            ))
        if self.counts[DROPPED] != self.dropped:
            violations.append((
                "outcome-conservation",
                f"dropped count {self.counts[DROPPED]} != "
                f"{self.dropped} recorded drops",
            ))
        for outcome, n in self.counts.items():
            if n < 0:
                violations.append((
                    "outcome-nonnegative", f"{outcome} count is {n}"
                ))
        if self.finalized and outstanding:
            violations.append((
                "outcome-conservation",
                f"{outstanding} prefetches still outstanding after finalize",
            ))
        return violations

    # -- reporting ------------------------------------------------------

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def to_dict(self) -> dict:
        return {
            "counts": dict(self.counts),
            "issued": self.issued,
            "dropped": self.dropped,
            "by_kind": {k: dict(v) for k, v in sorted(self.by_kind.items())},
            "by_pc": {str(pc): dict(v) for pc, v in sorted(self.by_pc.items())},
        }
