"""Size-class allocator: classes, alignment, padding, jump slots."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExecutionError
from repro.isa.program import HEAP_BASE
from repro.mem.allocator import (
    MAX_CLASS,
    MIN_CLASS,
    SizeClassAllocator,
    jump_slot,
    padding_bytes,
    size_class,
)


class TestSizeClass:
    @pytest.mark.parametrize(
        "size,expected",
        [(1, 8), (8, 8), (9, 16), (12, 16), (16, 16), (17, 32), (20, 32),
         (32, 32), (33, 64), (64, 64), (100, 128)],
    )
    def test_rounding(self, size, expected):
        assert size_class(size) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ExecutionError):
            size_class(0)

    @pytest.mark.parametrize("size,pad", [(12, 4), (16, 0), (20, 12), (8, 0)])
    def test_padding(self, size, pad):
        assert padding_bytes(size) == pad


class TestJumpSlot:
    def test_last_word_of_block(self):
        # 16-byte block at 0x100: slot is 0x10C regardless of interior addr
        assert jump_slot(0x100, 16) == 0x10C
        assert jump_slot(0x104, 16) == 0x10C
        assert jump_slot(0x108, 16) == 0x10C

    def test_32_byte_class(self):
        assert jump_slot(0x2000_0044, 32) == 0x2000_005C


class TestAllocator:
    def test_blocks_are_class_aligned(self):
        alloc = SizeClassAllocator(HEAP_BASE)
        for size in (1, 5, 12, 20, 40, 100):
            addr = alloc.alloc(size)
            assert addr % size_class(size) == 0

    def test_same_class_blocks_are_adjacent(self):
        alloc = SizeClassAllocator(HEAP_BASE)
        a1 = alloc.alloc(12)
        a2 = alloc.alloc(12)
        assert a2 - a1 == 16

    def test_class_of_and_block_base(self):
        alloc = SizeClassAllocator(HEAP_BASE)
        addr = alloc.alloc(20)  # class 32
        assert alloc.class_of(addr) == 32
        assert alloc.class_of(addr + 8) == 32
        assert alloc.block_base(addr + 8) == addr
        assert alloc.class_of(HEAP_BASE - 4) is None

    def test_stats(self):
        alloc = SizeClassAllocator(HEAP_BASE)
        alloc.alloc(12)
        alloc.alloc(12)
        alloc.alloc(30)
        st_ = alloc.stats
        assert st_.allocations == 3
        assert st_.requested_bytes == 54
        assert st_.allocated_bytes == 16 + 16 + 32
        assert st_.per_class == {16: 2, 32: 1}

    def test_rejects_unaligned_heap_base(self):
        with pytest.raises(ExecutionError):
            SizeClassAllocator(HEAP_BASE + 4)

    def test_rejects_oversize(self):
        alloc = SizeClassAllocator(HEAP_BASE)
        with pytest.raises(ExecutionError):
            alloc.alloc(MAX_CLASS + 1)

    @given(st.lists(st.integers(min_value=1, max_value=4096), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_blocks_never_overlap(self, sizes):
        alloc = SizeClassAllocator(HEAP_BASE)
        blocks = []
        for size in sizes:
            addr = alloc.alloc(size)
            blocks.append((addr, addr + size_class(size)))
        blocks.sort()
        for (s1, e1), (s2, __) in zip(blocks, blocks[1:]):
            assert e1 <= s2

    @given(st.integers(min_value=1, max_value=60000))
    @settings(max_examples=100, deadline=None)
    def test_jump_slot_inside_block(self, size):
        alloc = SizeClassAllocator(HEAP_BASE)
        addr = alloc.alloc(size)
        klass = size_class(size)
        slot = jump_slot(addr + 4 * ((size - 1) // 4), klass)
        assert addr <= slot < addr + klass
        assert slot == addr + klass - 4

    def test_min_class_floor(self):
        assert size_class(1) == MIN_CLASS
