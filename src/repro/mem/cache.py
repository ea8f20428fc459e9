"""Set-associative cache state model with LRU replacement.

This models cache *contents* (hit/miss/eviction and dirty state); access
*timing* (buses, MSHRs, miss latencies) lives in
:class:`repro.mem.hierarchy.MemoryHierarchy`.

Each set is a dict from line address to its dirty bit, kept in recency
order — the one LRU idiom every table of the simulated machine uses: a
touch pops the key and re-inserts it, so the least recently used line is
the dict's first key and eviction takes it without a scan.  The dirty
bits drive the hierarchy's write-back accounting: stores mark lines
dirty, and a fill that evicts a dirty victim returns
``evicted_dirty=True`` so the hierarchy can charge the victim write-back
to the bus — background-only under ``mshr_model="blocking"``, contending
with demand traffic under the non-blocking models.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import CacheConfig


@dataclass(slots=True)
class CacheStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0


class Cache:
    """Tag array of a set-associative write-back LRU cache."""

    __slots__ = ("cfg", "name", "stats", "_sets", "_line_mask", "_set_mask", "_line_shift")

    def __init__(self, cfg: CacheConfig, name: str = "cache") -> None:
        self.cfg = cfg
        self.name = name
        self.stats = CacheStats()
        self._sets: list[dict[int, bool]] = [dict() for _ in range(cfg.sets)]
        self._line_mask = ~(cfg.line - 1)
        self._line_shift = cfg.line.bit_length() - 1
        self._set_mask = cfg.sets - 1

    def line_addr(self, addr: int) -> int:
        return addr & self._line_mask

    def _set_index(self, line: int) -> int:
        return (line >> self._line_shift) & self._set_mask

    def access(self, addr: int, write: bool = False) -> bool:
        """Reference ``addr``; returns True on hit.  Updates LRU and dirty
        state but does not allocate on miss (call :meth:`fill`)."""
        line = addr & self._line_mask
        s = self._sets[self._set_index(line)]
        self.stats.accesses += 1
        dirty = s.pop(line, None)
        if dirty is None:
            self.stats.misses += 1
            return False
        s[line] = dirty or write
        self.stats.hits += 1
        return True

    def probe(self, addr: int) -> bool:
        """Hit check without touching LRU or statistics."""
        line = addr & self._line_mask
        return line in self._sets[self._set_index(line)]

    def fill(self, addr: int, dirty: bool = False) -> tuple[int | None, bool]:
        """Allocate the line holding ``addr``.

        Returns ``(evicted_line, evicted_dirty)``; ``(None, False)`` when no
        eviction occurred (or the line was already present).
        """
        line = addr & self._line_mask
        s = self._sets[self._set_index(line)]
        was_dirty = s.pop(line, None)
        if was_dirty is not None:
            s[line] = was_dirty or dirty
            return None, False
        evicted = None
        evicted_dirty = False
        if len(s) >= self.cfg.assoc:
            evicted = next(iter(s))
            evicted_dirty = s.pop(evicted)
            self.stats.evictions += 1
            if evicted_dirty:
                self.stats.writebacks += 1
        s[line] = dirty
        return evicted, evicted_dirty

    def invalidate(self, addr: int) -> bool:
        """Remove the line holding ``addr``; returns True if it was present."""
        line = addr & self._line_mask
        return self._sets[self._set_index(line)].pop(line, None) is not None

    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)
