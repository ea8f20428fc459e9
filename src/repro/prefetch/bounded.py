"""Monotone-clock bounded map for prefetch-engine bookkeeping.

Every engine keeps some per-address dict — "did I already prefetch this
line recently?", "which nodes has the traversal unit visited?".  Keyed
by *dynamic* addresses, such a dict grows with the footprint of the
program unless something evicts; the PR-5 ``DBPEngine._recent_chase``
bug was exactly this failure mode.  :class:`BoundedClockMap` is the
shared fix: a ``key -> timestamp`` map with

* a **recency window** — an entry older than ``window`` no longer
  suppresses (callers use :meth:`fresh` as the "already done recently"
  test), and
* a **hard size bound** — eviction runs on a monotone high-water clock
  (timestamps observed out of order never roll it back), dropping every
  entry too old to change a future :meth:`fresh` decision; if pruning
  by age cannot get under the bound, the oldest entries go too, so
  ``len(map) <= capacity`` holds after every :meth:`note`.

The map is deliberately deterministic (no wall clock, no hashing
randomness in the eviction order beyond dict insertion order), so
engines built on it stay bit-identical across the table and reference
simulation engines.
"""

from __future__ import annotations

from typing import Hashable, Iterator


class BoundedClockMap:
    """``key -> last-seen time`` with windowed, capacity-bounded eviction."""

    __slots__ = ("window", "capacity", "_entries", "_clock", "_pruned_at")

    def __init__(self, window: int, capacity: int) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.window = window
        self.capacity = capacity
        self._entries: dict[Hashable, int] = {}
        self._clock = 0       # monotone high-water mark of noted times
        self._pruned_at = 0   # clock value at the last windowed prune

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._entries)

    def get(self, key: Hashable) -> int | None:
        return self._entries.get(key)

    def fresh(self, key: Hashable, time: int) -> bool:
        """True if ``key`` was noted less than ``window`` ago.

        This is the suppression test: a fresh key means the same work is
        already outstanding and should not be re-launched.
        """
        seen = self._entries.get(key)
        return seen is not None and time - seen < self.window

    def note(self, key: Hashable, time: int) -> None:
        """Record ``key`` at ``time`` and run bounded eviction."""
        entries = self._entries
        entries[key] = time
        if time > self._clock:
            self._clock = time
        if (
            self._clock - self._pruned_at >= self.window
            and len(entries) > self.capacity // 4
        ) or len(entries) > self.capacity:
            self._prune()

    def check(self, key: Hashable, time: int) -> bool:
        """Combined test-and-set: True (and no write) when ``key`` is
        fresh, else notes it and returns False."""
        if self.fresh(key, time):
            return True
        self.note(key, time)
        return False

    def _prune(self) -> None:
        cutoff = self._clock - self.window
        entries = self._entries
        kept = {k: t for k, t in entries.items() if t >= cutoff}
        if len(kept) > self.capacity:
            # A burst inside one window can exceed the bound; drop the
            # oldest survivors (dict order is insertion order, and within
            # a window insertion order is what we have) until it holds.
            drop = len(kept) - self.capacity
            for key in list(kept)[:drop]:
                del kept[key]
        self._entries = kept
        self._pruned_at = self._clock

    def clear(self) -> None:
        self._entries.clear()

    # -- auditing --------------------------------------------------------

    def audit_check(self, label: str) -> list[tuple[str, str]]:
        """Bound violations for :meth:`PrefetchEngine.audit_check` sweeps."""
        violations: list[tuple[str, str]] = []
        if len(self._entries) > self.capacity:
            violations.append((
                f"{label}-bound",
                f"{len(self._entries)} {label} entries > "
                f"capacity {self.capacity}",
            ))
        if self._pruned_at > self._clock:
            violations.append((
                f"{label}-clock-monotone",
                f"{label} prune clock {self._pruned_at} ahead of "
                f"high-water clock {self._clock}",
            ))
        return violations
