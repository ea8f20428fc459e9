"""Adaptive jump intervals — the paper's first "future direction".

    "Our simulated implementation used a fixed queueing interval of 8
    nodes without regard to the trade-offs in latency tolerance and
    predictive accuracy.  A more detailed study of this spectrum is
    needed, with a better mechanism adapting the interval on a case by
    case basis." (Section 6)

:class:`AdaptiveJumpQueueTable` gives each recurrent load its own
interval, steered by the observed *timeliness* of its jump prefetches:

* a prefetch is **late** when the demand access arrives before the fill
  completes (the jump did not reach far enough ahead) → widen;
* a prefetch is **early** when its data sat unused for much longer than
  a memory latency (risking eviction and staleness) → narrow.

Each outcome arrives through :meth:`observe`; after ``ADAPT_EVERY``
observations the interval doubles or halves within
``[MIN_INTERVAL, ADAPTIVE_MAX_INTERVAL]``.  The table overrides only
:meth:`interval_of`; the base table's ``advance`` re-sizes a queue whose
interval changed, keeping its newest entries (truncated from the old end
when narrowing), so adaptation does not restart the pipeline of pending
jump-pointers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import ADAPTIVE_MAX_INTERVAL, PrefetchConfig
from ..obs.outcomes import EARLY, LATE
from .jqt import JumpQueueTable


@dataclass
class AdaptiveStats:
    late: int = 0
    early: int = 0
    timely: int = 0
    widenings: int = 0
    narrowings: int = 0


class AdaptiveJumpQueueTable(JumpQueueTable):
    """Per-PC jump intervals steered by prefetch-timeliness feedback."""

    MIN_INTERVAL = 2
    ADAPT_EVERY = 16
    #: fraction of observations that must agree before adapting
    VOTE = 0.625

    def __init__(self, pcfg: PrefetchConfig) -> None:
        super().__init__(pcfg)
        self.max_interval = ADAPTIVE_MAX_INTERVAL
        self._intervals: dict[int, int] = {}
        self._votes: dict[int, list[int]] = {}  # pc -> [late, early, total]
        self.adapt_stats = AdaptiveStats()

    def interval_of(self, pc: int) -> int:
        return self._intervals.get(pc, self._interval)

    def observe(self, pc: int, outcome: str) -> None:
        """Report one jump-prefetch timeliness outcome for ``pc``, using
        the shared labels of :mod:`repro.obs.outcomes` (``late`` /
        ``early`` / ``timely``, as produced by ``classify_timeliness``)."""
        st = self.adapt_stats
        late = outcome == LATE
        early = outcome == EARLY
        if late:
            st.late += 1
        elif early:
            st.early += 1
        else:
            st.timely += 1
        votes = self._votes.setdefault(pc, [0, 0, 0])
        votes[0] += late
        votes[1] += early
        votes[2] += 1
        if votes[2] < self.ADAPT_EVERY:
            return
        n_late, n_early, total = votes
        self._votes[pc] = [0, 0, 0]
        interval = self.interval_of(pc)
        if n_late >= total * self.VOTE and interval < self.max_interval:
            self._intervals[pc] = interval * 2
            st.widenings += 1
        elif n_early >= total * self.VOTE and interval > self.MIN_INTERVAL:
            self._intervals[pc] = interval // 2
            st.narrowings += 1
