"""Power-of-two size-class heap allocator.

Mirrors the behaviour the paper relies on (Section 3.3): small heap objects
are allocated in power-of-two size classes, every block of class *C* is
*C*-aligned, and any request smaller than its class leaves unused padding
at the end of the block.  Because blocks are class-aligned, the padding —
and in particular the *last word* of the block — can be located from any
interior address plus the size class alone:

    block_base = addr - addr % C
    jump_slot  = block_base + C - 4

This is exactly the computation the paper's annotated load variants
(``h8/h16/...``) let the hardware perform, and what
:class:`repro.prefetch.jqt.JumpPointerStorage` uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ExecutionError

WORD = 4
MIN_CLASS = 8
MAX_CLASS = 1 << 16
#: Address space reserved per size class (blocks of one class are packed).
CLASS_REGION = 1 << 24


def size_class(size: int) -> int:
    """Smallest power-of-two class that holds ``size`` bytes."""
    if size <= 0:
        raise ExecutionError(f"allocation of non-positive size {size}")
    c = MIN_CLASS
    while c < size:
        c <<= 1
    return c


def padding_bytes(size: int) -> int:
    """Unused bytes at the end of a block allocated for ``size`` bytes."""
    return size_class(size) - size


def jump_slot(addr: int, klass: int) -> int:
    """Address of the last word of the class-``klass`` block containing ``addr``."""
    base = addr - addr % klass
    return base + klass - WORD


@dataclass
class AllocatorStats:
    """Aggregate allocation statistics."""

    allocations: int = 0
    requested_bytes: int = 0
    allocated_bytes: int = 0
    per_class: dict[int, int] = field(default_factory=dict)


class SizeClassAllocator:
    """Bump allocator with per-class regions (no free list; Olden-style churn
    is modelled by reuse of nodes within the program, not by ``free``)."""

    def __init__(self, heap_base: int) -> None:
        if heap_base % MAX_CLASS:
            raise ExecutionError(
                f"heap base {heap_base:#x} must be {MAX_CLASS}-byte aligned"
            )
        self._heap_base = heap_base
        self._cursors: dict[int, int] = {}
        self._regions: dict[int, int] = {}
        self.stats = AllocatorStats()
        region = heap_base
        c = MIN_CLASS
        while c <= MAX_CLASS:
            self._regions[c] = region
            self._cursors[c] = region
            region += CLASS_REGION
            c <<= 1
        self._heap_end = region

    def alloc(self, size: int) -> int:
        """Allocate ``size`` bytes; returns the (class-aligned) block address."""
        klass = size_class(size)
        if klass > MAX_CLASS:
            raise ExecutionError(f"allocation of {size} bytes exceeds max class")
        addr = self._cursors[klass]
        self._cursors[klass] = addr + klass
        if self._cursors[klass] > self._regions[klass] + CLASS_REGION:
            raise ExecutionError(f"size-class {klass} region exhausted")
        st = self.stats
        st.allocations += 1
        st.requested_bytes += size
        st.allocated_bytes += klass
        st.per_class[klass] = st.per_class.get(klass, 0) + 1
        return addr

    def class_of(self, addr: int) -> int | None:
        """Size class of the region containing ``addr`` (None if not heap)."""
        if not self._heap_base <= addr < self._heap_end:
            return None
        idx = (addr - self._heap_base) // CLASS_REGION
        return MIN_CLASS << idx

    def block_base(self, addr: int) -> int | None:
        """Base address of the allocated block containing ``addr``."""
        klass = self.class_of(addr)
        if klass is None:
            return None
        return addr - addr % klass
