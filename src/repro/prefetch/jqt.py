"""Jump Queue Table, Jump-pointer Register and jump-pointer storage.

The JQT (Section 3.3, Figure 3) implements the queue method in hardware:
each recurrent ("backbone") load has a queue of its last *I* effective
addresses.  When a new instance commits, a jump-pointer is created from the
node at the head of the queue (the *home*, visited *I* hops ago) to the
current node (the *target*), and the queue advances.

Jump-pointers are stored either in *allocator padding* — located from the
access address and the annotated load's size class (see
:func:`repro.mem.allocator.jump_slot`) — or, for the Section 3.3 ablation,
in a finite on-chip table.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..config import PrefetchConfig
from ..mem.allocator import jump_slot


@dataclass
class JQTStats:
    installs: int = 0
    entry_evictions: int = 0


class JumpQueueTable:
    """Fully-associative table of per-PC address queues (32 entries).

    The queues are kept in recency order (the LRU idiom of
    :mod:`repro.mem.cache`).  Each PC's queue holds the configured
    ``jump_interval`` addresses (the paper's fixed interval of 8).
    """

    def __init__(self, pcfg: PrefetchConfig) -> None:
        self._entries = pcfg.jqt_entries
        self._interval = pcfg.jump_interval
        self._queues: dict[int, deque[int]] = {}
        self.stats = JQTStats()

    def advance(self, pc: int, addr: int) -> int | None:
        """Record a committed instance of recurrent load ``pc`` with
        effective address ``addr``.

        Returns the *home* address a jump-pointer (home -> addr) should be
        installed at, or None while the queue is still filling.
        """
        interval = self._interval
        queues = self._queues
        q = queues.pop(pc, None)
        if q is None:
            if len(queues) >= self._entries:
                del queues[next(iter(queues))]
                self.stats.entry_evictions += 1
            q = deque(maxlen=interval)
        queues[pc] = q
        home = None
        if len(q) == interval:
            home = q[0]
            self.stats.installs += 1
        q.append(addr)
        return home


class JumpPointerStorage:
    """Where hardware-created jump-pointers live.

    ``padding`` mode computes the slot from the effective address plus the
    annotated size class and reads/writes the (timing-side) memory image —
    the storage scales with the data structure and survives as long as the
    nodes do.  ``onchip`` mode keeps an LRU table of ``capacity`` (home
    block -> target) pairs, modelling the non-scalable on-chip alternative
    the paper argues against.
    """

    def __init__(self, pcfg: PrefetchConfig) -> None:
        self.onchip = pcfg.onchip_table_entries > 0
        self._capacity = pcfg.onchip_table_entries
        self._table: dict[int, int] = {}  # home -> target, recency order

    def store(self, timing_mem, home_addr: int, pad: int, target: int) -> int | None:
        """Install jump-pointer home->target; returns the written memory
        address in padding mode (for bandwidth accounting), else None."""
        if self.onchip:
            table = self._table
            if table.pop(home_addr, None) is None and len(table) >= self._capacity:
                del table[next(iter(table))]
            table[home_addr] = target
            return None
        if pad <= 0:
            return None
        slot = jump_slot(home_addr, pad)
        timing_mem.store(slot, target)
        return slot

    def load(self, timing_mem, addr: int, pad: int) -> int | None:
        """Retrieve the jump-pointer at the node containing ``addr``."""
        if self.onchip:
            target = self._table.pop(addr, None)
            if target is not None:
                self._table[addr] = target
            return target
        if pad <= 0:
            return None
        value = timing_mem.peek(jump_slot(addr, pad))
        return value if isinstance(value, int) and value else None
