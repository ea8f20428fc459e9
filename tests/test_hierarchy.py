"""Memory hierarchy timing: miss paths, MSHRs, merges, prefetch buffer."""

import pytest

from repro import MachineConfig, Telemetry
from repro.config import CacheConfig
from repro.mem.hierarchy import MemoryHierarchy
from repro.obs import EARLY_EVICTED, LATE, TIMELY

ADDR = 0x2000_0000


@pytest.fixture
def cfg():
    return MachineConfig(
        il1=CacheConfig(size=512, line=32, assoc=2, latency=1),
        dl1=CacheConfig(size=512, line=32, assoc=2, latency=1),
        l2=CacheConfig(size=2048, line=64, assoc=4, latency=12),
    )


def warmed(h: MemoryHierarchy, addr: int = ADDR) -> MemoryHierarchy:
    """Touch `addr` once (plus drain the TLB miss) so it is L1-resident."""
    h.data_access(addr, 0)
    return h


class TestDemandPath:
    def test_l1_hit_is_one_cycle(self, cfg):
        h = warmed(MemoryHierarchy(cfg))
        t = h.data_access(ADDR, 1000)
        assert t == 1001

    def test_l2_hit_latency(self, cfg):
        h = MemoryHierarchy(cfg)
        h.data_access(ADDR, 0)
        # Evict from tiny L1 by filling its set (same set, different tags)
        set_stride = 512 // 2  # sets*line
        h.data_access(ADDR + set_stride, 2000)
        h.data_access(ADDR + 2 * set_stride, 3000)
        t0 = 10_000
        done = h.data_access(ADDR, t0)
        lat = done - t0
        # L1 lat + L2 lat + L2 bus transfer; clearly below memory latency
        assert 10 <= lat < cfg.memory_latency

    def test_memory_miss_latency(self, cfg):
        h = MemoryHierarchy(cfg)
        t0 = 1000
        done = h.data_access(ADDR, t0)
        lat = done - t0
        tlb = cfg.dtlb.miss_penalty
        assert lat >= cfg.memory_latency + cfg.l2.latency
        assert lat <= tlb + cfg.memory_latency + cfg.l2.latency + 50

    def test_inflight_merge(self, cfg):
        h = MemoryHierarchy(cfg)
        done = h.data_access(ADDR, 1000)
        merged = h.data_access(ADDR + 4, 1001)  # same line, still in flight
        assert merged == done
        assert h.stats.l1d_partial_hits == 1

    def test_mshr_limit_delays_ninth_miss(self, cfg):
        h = MemoryHierarchy(cfg)
        h.dtlb.translate(ADDR)  # pre-warm the page
        dones = []
        for i in range(cfg.max_outstanding_misses + 1):
            # distinct lines, same page, same issue time
            dones.append(h.data_access(ADDR + 64 * i, 100))
        assert max(dones[:-1]) < dones[-1] or dones[-1] > 100 + 2 * cfg.memory_latency

    def test_perfect_mode_single_cycle(self, cfg):
        h = MemoryHierarchy(cfg.perfect())
        assert h.data_access(ADDR, 50) == 51
        assert h.data_access(ADDR + 4096, 60) == 61

    def test_bandwidth_counters(self, cfg):
        h = MemoryHierarchy(cfg)
        h.data_access(ADDR, 0)
        assert h.stats.bytes_l1_l2 == cfg.dl1.line
        assert h.stats.bytes_l2_mem == cfg.l2.line

    def test_writeback_on_dirty_eviction(self, cfg):
        h = MemoryHierarchy(cfg)
        h.data_access(ADDR, 0, write=True)
        set_stride = 512 // 2
        base = h.stats.bytes_l1_l2
        h.data_access(ADDR + set_stride, 5000)
        h.data_access(ADDR + 2 * set_stride, 6000)  # evicts dirty ADDR line
        # at least one extra line of writeback traffic beyond the two fills
        assert h.stats.bytes_l1_l2 >= base + 2 * cfg.dl1.line + cfg.dl1.line


class TestInstFetch:
    def test_icache_hit(self, cfg):
        h = MemoryHierarchy(cfg)
        h.inst_fetch(0x40_0000, 0)
        t = h.inst_fetch(0x40_0000, 500)
        assert t == 501

    def test_icache_miss_goes_to_l2(self, cfg):
        h = MemoryHierarchy(cfg)
        t = h.inst_fetch(0x40_0000, 0)
        assert t >= cfg.memory_latency


class TestPrefetch:
    def test_fill_into_pb_then_demand_hit(self, cfg):
        h = MemoryHierarchy(cfg, use_prefetch_buffer=True)
        done = h.prefetch_request(ADDR, 0)
        assert done is not None
        t = h.data_access(ADDR, done + 10)
        assert t == done + 10 + 1
        assert h.stats.pb_hits == 1
        assert h.stats.prefetches_useful == 1
        # installed into L1 on use
        assert h.dl1.probe(ADDR)
        assert not h.pb.probe(ADDR)

    def test_fill_into_l1_without_pb(self, cfg):
        h = MemoryHierarchy(cfg, use_prefetch_buffer=False)
        done = h.prefetch_request(ADDR, 0)
        t = h.data_access(ADDR, done + 5)
        assert t == done + 5 + 1
        assert h.stats.prefetches_useful == 1

    def test_redundant_prefetch_dropped(self, cfg):
        h = warmed(MemoryHierarchy(cfg))
        assert h.prefetch_request(ADDR, 100) is None
        assert h.stats.prefetches_redundant == 1

    def test_inflight_prefetch_redundant(self, cfg):
        h = MemoryHierarchy(cfg, use_prefetch_buffer=True)
        h.prefetch_request(ADDR, 0)
        assert h.prefetch_request(ADDR + 4, 1) is None

    def test_late_prefetch_merges_and_counts_useful(self, cfg):
        h = MemoryHierarchy(cfg, use_prefetch_buffer=True)
        h.prefetch_request(ADDR, 1000)
        t = h.data_access(ADDR, 1002)
        assert t > 1003  # partial hit, not a full hit
        assert h.stats.prefetches_useful == 1

    def test_demand_promotion_caps_merge_latency(self, cfg):
        h = MemoryHierarchy(cfg, use_prefetch_buffer=True)
        # Backlog the background bus with many prefetches
        h.dtlb.translate(ADDR)
        for i in range(4):
            h.prefetch_request(ADDR + 64 * i, 1000)
        target = h._inflight[ADDR & ~31]
        demand = h.data_access(ADDR, 1001)
        assert demand <= 1001 + h._demand_fill_estimate

    def test_mshr_reservation_throttles_prefetch(self, cfg):
        h = MemoryHierarchy(cfg, use_prefetch_buffer=True)
        h.dtlb.translate(ADDR)
        for i in range(cfg.max_outstanding_misses - 2):
            h.data_access(ADDR + 64 * i, 100)
        assert h.prefetch_request(ADDR + 0x4000, 101) is None
        assert h.stats.prefetches_throttled == 1

    def test_probe_cached(self, cfg):
        h = warmed(MemoryHierarchy(cfg, use_prefetch_buffer=True))
        assert h.probe_cached(ADDR, 50_000)
        assert not h.probe_cached(ADDR + 0x8000, 50_000)

    def test_jp_store_hit_marks_dirty(self, cfg):
        h = warmed(MemoryHierarchy(cfg))
        h.jp_store(ADDR + 12, 100)
        set_stride = 512 // 2  # sets*line: two more lines evict ADDR's
        victims = [h.dl1.fill(ADDR + k * set_stride) for k in (1, 2)]
        assert victims == [(None, False), (ADDR & ~31, True)]

    def test_jp_store_miss_writes_around(self, cfg):
        h = MemoryHierarchy(cfg)
        before = h.stats.bytes_l1_l2
        h.jp_store(ADDR + 12, 100)
        assert h.stats.bytes_l1_l2 == before + 4
        assert not h.dl1.probe(ADDR + 12)  # no allocation


def observed(h: MemoryHierarchy) -> Telemetry:
    tele = Telemetry()
    h.set_telemetry(tele)
    return tele


class TestPrefetchLedger:
    """Each issued prefetch is one ledger record, resolved exactly once."""

    def test_evicted_prefetch_is_not_useful_to_a_later_merge(self, cfg):
        h = MemoryHierarchy(cfg)  # no PB: prefetches fill L1
        tele = observed(h)
        h.prefetch_request(ADDR, 0)
        set_stride = 512 // 2  # sets*line: two more lines evict ADDR's
        h.data_access(ADDR + set_stride, 1000)
        h.data_access(ADDR + 2 * set_stride, 2000)
        assert not h.dl1.probe(ADDR)
        assert tele.outcomes.counts[EARLY_EVICTED] == 1
        # Demand re-miss, then a second access merging with its fill.
        h.data_access(ADDR, 5000)
        h.data_access(ADDR + 4, 5001)
        assert h.stats.l1d_partial_hits == 1
        assert h.stats.prefetches_useful == 0
        assert tele.outcomes.counts[EARLY_EVICTED] == 1
        assert h.audit_check() == []

    def test_late_merge_then_pb_hit_is_one_use(self, cfg):
        h = MemoryHierarchy(cfg, use_prefetch_buffer=True)
        tele = observed(h)
        done = h.prefetch_request(ADDR, 1000)
        h.data_access(ADDR, 1002)  # late: merges with the fill in flight
        assert h.stats.l1d_partial_hits == 1
        assert h.pb.probe(ADDR)  # the merge does not install the line
        h.data_access(ADDR, done + 10)
        assert h.stats.pb_hits == 1
        assert h.stats.prefetches_useful == 1
        assert tele.outcomes.counts[LATE] == 1
        assert tele.outcomes.counts[TIMELY] == 0
        assert h.prefetches_pending == 0
        assert h.audit_check() == []

    def test_drain_returns_unresolved_records(self, cfg):
        h = MemoryHierarchy(cfg, use_prefetch_buffer=True)
        done = h.prefetch_request(ADDR, 0, kind="jump", pc=7)
        assert h.prefetches_pending == 1
        assert h.drain_prefetches() == [("jump", 7, done)]
        assert h.prefetches_pending == 0

    def test_request_accounting_law_trips_on_skew(self, cfg):
        h = MemoryHierarchy(cfg)
        h.prefetch_request(ADDR, 0)
        assert h.prefetch_request(ADDR, 1) is None  # redundant
        assert h.audit_check() == []
        # A request that resolves to nothing is as wrong as one that
        # resolves twice.
        h.stats.prefetches_requested += 1
        assert [law for law, __ in h.audit_check()] == [
            "prefetch-request-accounting"
        ]

    def test_outcome_agreement_law_trips_on_skew(self, cfg):
        h = MemoryHierarchy(cfg)
        tele = observed(h)
        done = h.prefetch_request(ADDR, 0)
        h.data_access(ADDR, done + 5)
        assert h.stats.prefetches_useful == 1
        assert h.audit_check() == []
        tele.outcomes.counts[TIMELY] += 1
        assert [law for law, __ in h.audit_check()] == [
            "prefetch-outcome-agreement"
        ]


class TestDemandPriority:
    def test_demand_bypasses_prefetch_backlog(self, cfg):
        h = MemoryHierarchy(cfg, use_prefetch_buffer=True)
        h.dtlb.translate(ADDR)
        h.dtlb.translate(ADDR + 0x10000)
        for i in range(4):
            h.prefetch_request(ADDR + 64 * i, 1000)
        backlog = h._mem_bus_all
        demand = h.data_access(ADDR + 0x10000, 1000)
        # the demand miss is not queued behind the prefetch transfers
        assert demand - 1000 < (backlog - 1000) + cfg.memory_latency
