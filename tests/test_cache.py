"""Set-associative cache model: LRU, eviction, dirty tracking; the TLB
and on-chip jump-pointer table against the same LRU oracle."""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, PrefetchConfig, TLBConfig
from repro.mem.cache import Cache
from repro.mem.tlb import TLB
from repro.prefetch.jqt import JumpPointerStorage


def small_cache(assoc=2, sets=4, line=32):
    return Cache(CacheConfig(size=line * assoc * sets, line=line, assoc=assoc, latency=1))


class TestBasics:
    def test_miss_then_hit(self):
        c = small_cache()
        assert not c.access(0x100)
        c.fill(0x100)
        assert c.access(0x100)
        assert c.stats.hits == 1 and c.stats.misses == 1

    def test_same_line_different_words(self):
        c = small_cache()
        c.fill(0x100)
        assert c.access(0x104)
        assert c.access(0x11C)
        assert not c.access(0x120)  # next line

    def test_probe_does_not_touch_stats_or_lru(self):
        c = small_cache()
        c.fill(0x100)
        before = (c.stats.accesses, c.stats.hits, c.stats.misses)
        assert c.probe(0x100)
        assert not c.probe(0x200)
        assert (c.stats.accesses, c.stats.hits, c.stats.misses) == before

    def test_lru_eviction_order(self):
        c = small_cache(assoc=2, sets=1)
        c.fill(0x000)
        c.fill(0x020)
        c.access(0x000)          # 0x000 is now MRU
        evicted, __ = c.fill(0x040)
        assert evicted == 0x020

    def test_dirty_eviction_reported(self):
        c = small_cache(assoc=1, sets=1)
        c.fill(0x000, dirty=True)
        evicted, dirty = c.fill(0x020)
        assert evicted == 0x000 and dirty
        assert c.stats.writebacks == 1

    def test_clean_eviction(self):
        c = small_cache(assoc=1, sets=1)
        c.fill(0x000)
        __, dirty = c.fill(0x020)
        assert not dirty

    def test_write_access_sets_dirty(self):
        c = small_cache(assoc=1, sets=1)
        c.fill(0x000)
        c.access(0x000, write=True)
        __, dirty = c.fill(0x020)
        assert dirty

    def test_invalidate(self):
        c = small_cache()
        c.fill(0x100, dirty=True)
        assert c.invalidate(0x104)
        assert not c.probe(0x100)
        assert not c.invalidate(0x100)

    def test_refill_existing_line_no_eviction(self):
        c = small_cache(assoc=1, sets=1)
        c.fill(0x000)
        evicted, dirty = c.fill(0x000, dirty=True)
        assert evicted is None
        __, was_dirty = c.fill(0x020)
        assert was_dirty  # the refill marked it dirty

    def test_set_isolation(self):
        c = small_cache(assoc=1, sets=4)
        c.fill(0x000)
        c.fill(0x020)  # different set
        assert c.probe(0x000) and c.probe(0x020)


class _ReferenceLRU:
    """Oracle: per-set OrderedDict LRU with a dirty bit per line."""

    def __init__(self, assoc, sets, line):
        self.assoc, self.sets, self.line = assoc, sets, line
        self.data = [OrderedDict() for __ in range(sets)]
        self.writebacks = 0

    def _set(self, addr):
        line = addr // self.line * self.line
        return line, self.data[(addr // self.line) % self.sets]

    def access(self, addr, write=False):
        line, d = self._set(addr)
        if line in d:
            d.move_to_end(line)
            d[line] = d[line] or write
            return True
        return False

    def fill(self, addr, dirty=False):
        """Returns ``(evicted_line, evicted_dirty)`` like ``Cache.fill``."""
        line, d = self._set(addr)
        if line in d:
            d.move_to_end(line)
            d[line] = d[line] or dirty
            return None, False
        victim = (None, False)
        if len(d) >= self.assoc:
            victim = d.popitem(last=False)
            self.writebacks += victim[1]
        d[line] = dirty
        return victim


def _cache_step(cache, ref, addr, write):
    hit = cache.access(addr, write)
    assert hit == ref.access(addr, write)
    if not hit:
        assert cache.fill(addr, dirty=write) == ref.fill(addr, dirty=write)
    assert cache.stats.writebacks == ref.writebacks


def _tlb_step(tlb, ref, addr, write):
    hit = tlb.translate(addr) == 0
    assert hit == ref.access(addr)
    if not hit:
        ref.fill(addr)


def _onchip_step(storage, ref, addr, write):
    """A write installs a jump-pointer at the block's home, a read
    retrieves it; both refresh the entry's recency."""
    home = addr & ~255
    if write:
        storage.store(None, home, 16, home + 4)
        ref.fill(home)
    else:
        want = home + 4 if ref.access(home) else None
        assert storage.load(None, home, 16) == want


#: Each LRU table of the simulated machine against the same oracle:
#: (make the table, the oracle's (assoc, sets, line) shape, one step).
LRU_TABLES = {
    "cache": (lambda: small_cache(assoc=2, sets=4, line=128), (2, 4, 128),
              _cache_step),
    "tlb": (lambda: TLB(TLBConfig(entries=4, page_size=256)), (4, 1, 256),
            _tlb_step),
    "onchip-jp": (
        lambda: JumpPointerStorage(PrefetchConfig(onchip_table_entries=4)),
        (4, 1, 256), _onchip_step,
    ),
}


@given(
    st.sampled_from(sorted(LRU_TABLES)),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=1023), st.booleans()),
        # every step is checked, so a long run covers its prefixes too
        min_size=64, max_size=200,
    ),
)
@settings(max_examples=120, deadline=None)
def test_matches_reference_lru(table, accesses):
    make, shape, step = LRU_TABLES[table]
    lru = make()
    ref = _ReferenceLRU(*shape)
    for raw, write in accesses:
        step(lru, ref, raw * 4, write)


@given(st.lists(st.integers(min_value=0, max_value=4095), min_size=1, max_size=500))
@settings(max_examples=40, deadline=None)
def test_capacity_never_exceeded(addresses):
    c = small_cache(assoc=4, sets=8)
    for raw in addresses:
        c.fill(raw * 4)
        assert c.resident_lines() <= 4 * 8
