"""Dependence predictor and value correlator.

The dependence predictor is the central DBP structure [Roth, Moshovos &
Sohi 1998]: a set-associative table of *correlations* — (producer load PC)
-> list of (consumer load PC, address offset) — meaning "the value loaded
by the producer, plus offset, is the address of the consumer".  Completed
loads (and completed prefetches, speculatively) query it to launch chained
prefetches.

The value correlator implements the cooperative scheme's learning
(Section 3.2): it remembers recent jump-pointer values fetched by ``JPF``
instructions; when a later demand load's base address equals a remembered
value, a correlation from the ``JPF`` to that load is created, after which
the hardware automatically issues chained-prefetch instances of loads that
depend on a jump-pointer prefetch.
"""

from __future__ import annotations

from ..config import PrefetchConfig

#: Offsets outside this window are considered coincidental, not field access.
MIN_OFFSET = -64
MAX_OFFSET = 4096


class DependencePredictor:
    """Set-associative producer->consumer correlation table."""

    def __init__(self, pcfg: PrefetchConfig) -> None:
        self._sets = max(1, pcfg.dep_entries // pcfg.dep_assoc)
        self._assoc = pcfg.dep_assoc
        #: set index -> {producer pc -> {consumer pc -> offset}}, each set
        #: in recency order (the LRU idiom of :mod:`repro.mem.cache`)
        self._table: dict[int, dict[int, dict[int, int]]] = {}
        self.evicted = 0

    def learn(self, producer_pc: int, consumer_pc: int, offset: int) -> bool:
        """Record that consumer's address = producer's value + offset."""
        if not MIN_OFFSET <= offset <= MAX_OFFSET:
            return False
        s = self._table.setdefault(producer_pc % self._sets, {})
        consumers = s.pop(producer_pc, None)
        if consumers is None:
            if len(s) >= self._assoc:
                del s[next(iter(s))]
                self.evicted += 1
            consumers = {}
        s[producer_pc] = consumers
        consumers[consumer_pc] = offset
        return True

    _EMPTY: tuple[tuple[int, int], ...] = ()

    def lookup(self, producer_pc: int):
        """Consumers of ``producer_pc`` as an iterable of (consumer_pc,
        offset) pairs.  Returns a live view over the correlation entry (the
        chase loop consumes it before any ``learn`` can run); wrap in
        ``list``/``dict`` to snapshot."""
        s = self._table.get(producer_pc % self._sets)
        consumers = s.pop(producer_pc, None) if s else None
        if consumers is None:
            return self._EMPTY
        s[producer_pc] = consumers
        return consumers.items()

    def lookup_quiet(self, producer_pc: int):
        """Lookup without LRU update (the engine's recurrence check).  Returns
        a live (consumer_pc, offset) view, like :meth:`lookup`."""
        s = self._table.get(producer_pc % self._sets)
        consumers = s.get(producer_pc) if s else None
        return self._EMPTY if consumers is None else consumers.items()


class ValueCorrelator:
    """Small CAM of recently fetched jump-pointer values -> JPF PC."""

    def __init__(self, capacity: int = 64) -> None:
        self._capacity = capacity
        self._entries: dict[int, int] = {}  # value -> pc, recency order

    def record(self, value: int, pc: int) -> None:
        entries = self._entries
        if entries.pop(value, None) is None and len(entries) >= self._capacity:
            del entries[next(iter(entries))]
        entries[value] = pc

    def match(self, value: int) -> int | None:
        """JPF PC that fetched ``value``, if remembered.

        The entry is retained (refreshed) so every load consuming the
        jump-pointer's value — a node's value, rib pointer and next field —
        gets its own correlation; entries age out by capacity.
        """
        pc = self._entries.pop(value, None)
        if pc is not None:
            self._entries[value] = pc
        return pc
