"""Per-prefetch outcome classification (the paper's Section-5 taxonomy).

Every issued prefetch eventually resolves to exactly one outcome:

* ``timely``        — the demand access found the data already filled;
* ``late``          — the demand access arrived while the fill was still
                      in flight (latency partially hidden);
* ``early-evicted`` — the prefetched line was evicted before any use;
* ``useless``       — never referenced by the end of the run;
* ``dropped``       — rejected at the prefetch request queue (never issued).

The memory hierarchy keeps the one ledger of issued, unresolved
prefetches and resolves each record once (see :mod:`repro.mem.hierarchy`);
the tracker keeps no per-line state, it only classifies and counts.  So
with a tracker attached ``prefetches_useful == timely + late`` and
``prefetches_issued == issued``.
"""

from __future__ import annotations

from typing import Iterable

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

#: One issued, unresolved prefetch as the hierarchy's ledger holds it:
#: ``(kind, pc, fill)`` — the engine's request kind, the triggering
#: load's index (None when unattributed) and the fill-completion cycle.
PrefetchRecord = tuple[str, int | None, int]


def _empty_counts() -> dict[str, int]:
    return {o: 0 for o in OUTCOMES}


class OutcomeTracker:
    """Accumulates terminal outcomes per engine-kind and per trigger PC.

    The prefetch engine reports drops; the memory hierarchy reports
    issues and the resolution of each ledger record (see the module
    docstring).
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

    def record_issue(self) -> None:
        """An actual (non-redundant) prefetch entered the ledger."""
        self.issued += 1

    def record_drop(self, kind: str, pc: int | None) -> None:
        """A prefetch request was rejected at the full PRQ."""
        self.dropped += 1
        self._count(DROPPED, kind, pc)

    def on_demand(self, rec: PrefetchRecord, time: int) -> str:
        """A demand access at ``time`` used the prefetch ``rec``: late
        if its fill was still in flight, timely otherwise."""
        kind, pc, fill = rec
        outcome = LATE if time < fill else TIMELY
        if outcome is TIMELY and self.distance is not None:
            self.distance.observe(time - fill)
        self._count(outcome, kind, pc)
        return outcome

    def on_evict(self, rec: PrefetchRecord) -> str:
        """The line of ``rec`` was evicted (L1 or prefetch buffer)
        before any use."""
        self._count(EARLY_EVICTED, rec[0], rec[1])
        return EARLY_EVICTED

    def finalize(self, unresolved: Iterable[PrefetchRecord] = ()) -> None:
        """End of run: the ledger's leftover records were useless."""
        for kind, pc, __ in unresolved:
            self._count(USELESS, kind, pc)
        self.finalized = True

    # -- auditing ---------------------------------------------------------

    def audit_check(self, outstanding: int = 0) -> list[tuple[str, str]]:
        """Invariant sweep for :class:`repro.audit.Auditor`;
        ``outstanding`` is the size of the hierarchy's ledger.

        Returns ``(invariant, message)`` pairs for every violated law:

        * **outcome-conservation** — every issued or dropped prefetch is
          classified exactly once; mid-run the difference is exactly the
          ledger's unresolved records, after :meth:`finalize` it is zero.
        * **outcome-nonnegative** — no classified count ever decreases
          below zero (a double-pop would show up here).
        """
        violations: list[tuple[str, str]] = []
        classified = self.total
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
