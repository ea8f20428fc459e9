"""TLB model: translation penalties and LRU replacement."""

from repro.config import TLBConfig
from repro.mem.tlb import TLB


def test_first_access_misses():
    tlb = TLB(TLBConfig(entries=4, miss_penalty=30))
    assert tlb.translate(0x1000) == 30
    assert tlb.translate(0x1004) == 0  # same page
    assert tlb.translate(0x1FFC) == 0
    assert tlb.translate(0x2000) == 30  # next page


def test_lru_replacement():
    tlb = TLB(TLBConfig(entries=2, miss_penalty=30))
    tlb.translate(0x0000)
    tlb.translate(0x1000)
    tlb.translate(0x0000)       # page 0 is MRU
    tlb.translate(0x2000)       # evicts page 1
    assert tlb.translate(0x0000) == 0
    assert tlb.translate(0x1000) == 30


def test_stats():
    tlb = TLB(TLBConfig(entries=4))
    for __ in range(3):
        tlb.translate(0x5000)
    assert tlb.stats.accesses == 3
    assert tlb.stats.misses == 1


def test_page_size_respected():
    tlb = TLB(TLBConfig(entries=8, page_size=8192, miss_penalty=10))
    assert tlb.translate(0x0000) == 10
    assert tlb.translate(0x1FFC) == 0       # still page 0 at 8K pages
    assert tlb.translate(0x2000) == 10
