"""Fully-associative TLB with LRU replacement and hardware miss handling."""

from __future__ import annotations

from dataclasses import dataclass

from ..config import TLBConfig


@dataclass(slots=True)
class TLBStats:
    accesses: int = 0
    misses: int = 0


class TLB:
    """Translate is modelled as: hit = 0 extra cycles, miss = fixed hardware
    miss-handling penalty (30 cycles in Table 2)."""

    __slots__ = ("cfg", "stats", "_entries", "_page_shift")

    def __init__(self, cfg: TLBConfig) -> None:
        self.cfg = cfg
        self.stats = TLBStats()
        self._entries: dict[int, bool] = {}  # pages in recency order
        self._page_shift = cfg.page_size.bit_length() - 1

    def translate(self, addr: int) -> int:
        """Returns the extra latency (0 on hit, miss penalty on miss)."""
        page = addr >> self._page_shift
        entries = self._entries
        self.stats.accesses += 1
        if entries.pop(page, False):
            entries[page] = True
            return 0
        self.stats.misses += 1
        if len(entries) >= self.cfg.entries:
            del entries[next(iter(entries))]
        entries[page] = True
        return self.cfg.miss_penalty
