"""Two-level memory hierarchy with miss, bus, MSHR and TLB timing.

Latency composition for a demand L1 data miss issued at time *t*:

1. L1 lookup (``dl1.latency``), miss detected; an MSHR is acquired (at most
   ``max_outstanding_misses`` in flight — Table 2's 8; a full MSHR file
   delays the request until the earliest outstanding miss completes).
2. L2 lookup (12 cycles).  On a hit the line crosses the L2 bus (8 bytes per
   bus cycle at half core frequency).  On a miss, main memory is accessed
   (70 cycles) and the L2 line crosses the memory bus (8 bytes per bus cycle
   at quarter core frequency), then the L1 line crosses the L2 bus.
3. The line is filled; in-flight misses are recorded so later accesses to
   the same line merge and see only the residual latency.

Prefetch requests follow the same path but fill the prefetch buffer when
one is configured (hardware/cooperative/DBP schemes); a demand hit in the
prefetch buffer costs one cycle and installs the line into L1 ("installed
into the cache if used", Table 2).

MSHR models (``MachineConfig.mshr_model``)
------------------------------------------

The data side supports three MSHR fidelity levels, selectable per machine
(spec files: ``overrides = {"mshr_model" = "coalescing"}``; CLI:
``--set mshr_model=full`` on ``run``, ``run-spec`` or ``audit``):

* ``blocking`` (default) — the historical model above, bit-exact: misses
  are capped by the MSHR file, merges with in-flight lines see the
  residual latency, and dirty-victim writebacks occupy only background
  bus slots.
* ``coalescing`` — per-line MSHR entries with secondary-miss coalescing:
  a demand miss (or prefetch) to an in-flight line joins that entry's
  target list instead of allocating a new MSHR or re-walking the bus, and
  a demand join *promotes* a background (prefetch/store) fill to demand
  bus priority — it completes no later than the entry's demand-priority
  completion time, computed when the transfer was scheduled.  Prefetches
  to in-flight lines are reclassified from ``redundant`` to
  ``coalesced``.  Dirty-victim L1 writebacks additionally consume demand
  bus slots (the victim must drain before the fill's port is free), so
  write-back traffic now contends with demand and prefetch transfers.
* ``full`` — ``coalescing`` plus critical-word-first fill (the triggering
  demand load completes after one word crosses the L2 bus rather than the
  whole line) and hit-during-refill (a secondary demand load is served as
  the refill streams past, at ``max(t + dl1.latency, first-beat
  arrival)``, without waiting for the full line).

The instruction side keeps the blocking model throughout (I-fetch misses
do not coalesce into data MSHRs).  Every model shares the same L1-hit
path; all model-specific behavior lives on the miss/merge paths.

MSHR bookkeeping is audited (:meth:`MemoryHierarchy.audit_check`):
``allocated == retired + outstanding``, target-list conservation,
coalesce accounting, and the occupancy bound never exceeding
``max_outstanding_misses``.

The prefetch ledger
-------------------

``_pf`` holds the one record of each issued, not-yet-used prefetch:
line -> ``(kind, pc, fill)``.  :meth:`MemoryHierarchy.prefetch_request`
enters it; a demand use (merge, L1 hit or prefetch-buffer hit), an
unused eviction from L1 or the prefetch buffer, or the end of the run
(:meth:`MemoryHierarchy.drain_prefetches`) pops it exactly once and
reports it to the :class:`~repro.obs.outcomes.OutcomeTracker`.  Only a
demand use counts ``prefetches_useful``, so with telemetry
``prefetches_useful == timely + late``.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import TYPE_CHECKING

from ..config import MachineConfig
from ..obs.outcomes import LATE, TIMELY, PrefetchRecord
from .cache import Cache

if TYPE_CHECKING:  # pragma: no cover
    from ..obs import Telemetry


@dataclass(slots=True)
class HierarchyStats:
    """Event and bandwidth counters for one simulation."""

    loads: int = 0
    stores: int = 0
    l1d_partial_hits: int = 0
    pb_hits: int = 0
    prefetches_requested: int = 0
    prefetches_issued: int = 0
    prefetches_redundant: int = 0
    prefetches_throttled: int = 0
    prefetches_useful: int = 0
    bytes_l1_l2: int = 0
    bytes_l2_mem: int = 0
    lds_load_misses: int = 0
    load_misses: int = 0
    # Dirty-victim L1 writebacks (counted under every model; only the
    # non-blocking models charge them against demand bus slots).
    writebacks_l1: int = 0
    writeback_bus_cycles: int = 0
    # MSHR-entry accounting (non-blocking models only; stays zero under
    # `blocking`, which has no per-line entry table).
    mshrs_allocated: int = 0
    mshrs_retired: int = 0
    mshr_coalesced: int = 0
    mshr_targets: int = 0
    mshr_targets_retired: int = 0
    mshr_occupancy_peak: int = 0
    prefetches_coalesced: int = 0
    # `full` model only: demand misses returned at the critical word, and
    # secondary loads served while the refill streamed past.
    critical_word_returns: int = 0
    refill_hits: int = 0


class MemoryHierarchy:
    """See module docstring."""

    __slots__ = (
        "cfg", "il1", "dl1", "l2", "itlb", "dtlb", "pb", "stats",
        "_l2_bus_demand", "_l2_bus_all", "_mem_bus_demand", "_mem_bus_all",
        "_mshr_done", "_inflight", "_pf", "_perfect",
        "_demand_fill_estimate", "_obs", "_dl1_line_mask",
        "_prof", "_nb", "_full", "_mshr_entries", "_mshr_hist",
        "_last_demand_ready", "_last_data_ready", "_wb_until",
    )

    def __init__(
        self,
        cfg: MachineConfig,
        use_prefetch_buffer: bool = False,
    ) -> None:
        from .tlb import TLB  # local import to avoid cycle in docs builds

        self.cfg = cfg
        self.il1 = Cache(cfg.il1, "il1")
        self.dl1 = Cache(cfg.dl1, "dl1")
        self.l2 = Cache(cfg.l2, "l2")
        self.itlb = TLB(cfg.itlb)
        self.dtlb = TLB(cfg.dtlb)
        self.pb: Cache | None = (
            Cache(cfg.prefetch.prefetch_buffer, "pb") if use_prefetch_buffer else None
        )
        self.stats = HierarchyStats()
        # Two-class bus accounting: demand transfers have priority and see
        # only other demand traffic; prefetch/background transfers queue
        # behind everything (`*_all`).
        self._l2_bus_demand = 0
        self._l2_bus_all = 0
        self._mem_bus_demand = 0
        self._mem_bus_all = 0
        self._mshr_done: list[int] = []  # completion times of in-flight misses
        self._inflight: dict[int, int] = {}  # line -> data ready time
        # Non-blocking MSHR models (see module docstring).  `_nb` is
        # hoisted so the blocking fast path pays one attribute read.
        self._nb = cfg.mshr_model != "blocking"
        self._full = cfg.mshr_model == "full"
        # line -> [ready, demand_ready, data_ready, targets]: the fill
        # completion, its hypothetical demand-priority completion (used to
        # promote background fills a demand join rides), the first-beat
        # arrival (critical word / refill streaming), and the target list
        # length.  Retired lazily at allocation time.
        self._mshr_entries: dict[int, list[int]] = {}
        # Side channel filled by _l2_path under non-blocking models.
        self._last_demand_ready = 0
        self._last_data_ready = 0
        # Demand-bus time up to which the backlog tail is a writeback
        # drain (profiler attribution of wb-held demand misses).
        self._wb_until = 0
        # The prefetch ledger (see module docstring): line -> record.
        self._pf: dict[int, PrefetchRecord] = {}
        self._perfect = cfg.perfect_data_memory
        # Worst-case demand fill latency: used to promote in-flight
        # background (prefetch) fills that a demand access merges with —
        # the demand must never wait longer than its own miss would take.
        self._demand_fill_estimate = (
            cfg.dl1.latency
            + cfg.l2.latency
            + cfg.memory_latency
            + cfg.mem_bus.cycles_for(cfg.l2.line)
            + cfg.l2_bus.cycles_for(cfg.dl1.line)
        )
        # Optional observability context (None = zero-overhead fast path).
        self._obs: "Telemetry | None" = None
        self._mshr_hist = None
        # Optional profiler (same contract): notes the service level and
        # latency of every demand load for the CPI stack / site table.
        self._prof = None
        # L1 line mask, hoisted for the demand-access fast path.
        self._dl1_line_mask = ~(cfg.dl1.line - 1)

    def set_telemetry(self, obs: "Telemetry | None") -> None:
        """Attach an observability context; registers this component's
        instruments into its metric registry."""
        self._obs = obs
        if obs is not None:
            from ..obs import linear_buckets

            self._mshr_hist = obs.registry.histogram(
                "mem.mshr_occupancy",
                linear_buckets(1, 1, self.cfg.max_outstanding_misses),
                help="live MSHR entries, sampled at each allocation "
                     "(non-blocking mshr models only)",
            )
        else:
            self._mshr_hist = None

    def set_profiler(self, prof) -> None:
        """Attach a :class:`repro.obs.profile.Profiler` (or ``None``)."""
        self._prof = prof

    # ------------------------------------------------------------------
    # Auditing
    # ------------------------------------------------------------------

    def audit_check(self) -> list[tuple[str, str]]:
        """Invariant sweep for :class:`repro.audit.Auditor`; returns
        ``(invariant, message)`` pairs for every violated law.

        * **cache-access-conservation** — per level, ``hits + misses ==
          accesses`` (a double-counted or dropped lookup breaks this).
        * **cache-capacity** — no tag array holds more lines than
          ``sets * assoc``.
        * **tlb-access-conservation** — per TLB, ``misses <= accesses``.
        * **prefetch-request-accounting** — every prefetch request
          resolves to exactly one of issued / redundant / throttled /
          coalesced (skipped under perfect data memory, which
          short-circuits).

        Non-blocking MSHR models add the entry-table conservation laws:

        * **mshr-conservation** — ``allocated == retired + outstanding``.
        * **mshr-coalesce-accounting** — every coalesced (secondary) miss
          is exactly one demand partial hit or one coalesced prefetch.
        * **mshr-target-accounting** — targets ever attached equal
          targets retired plus targets on live entries.
        * **mshr-occupancy** — live entries never exceeded
          ``max_outstanding_misses``.

        With telemetry attached:

        * **prefetch-outcome-agreement** — the ledger and the outcome
          tracker agree: ``prefetches_useful == timely + late`` and
          ``prefetches_issued == outcomes.issued``.
        """
        violations: list[tuple[str, str]] = []
        caches = [self.il1, self.dl1, self.l2]
        if self.pb is not None:
            caches.append(self.pb)
        for cache in caches:
            s = cache.stats
            if s.hits + s.misses != s.accesses:
                violations.append((
                    "cache-access-conservation",
                    f"{cache.name}: hits {s.hits} + misses {s.misses} "
                    f"!= accesses {s.accesses}",
                ))
            capacity = cache.cfg.sets * cache.cfg.assoc
            resident = cache.resident_lines()
            if resident > capacity:
                violations.append((
                    "cache-capacity",
                    f"{cache.name}: {resident} resident lines > "
                    f"capacity {capacity}",
                ))
        for name, tlb in (("itlb", self.itlb), ("dtlb", self.dtlb)):
            t = tlb.stats
            if t.misses > t.accesses:
                violations.append((
                    "tlb-access-conservation",
                    f"{name}: misses {t.misses} > accesses {t.accesses}",
                ))
        st = self.stats
        if not self._perfect:
            resolved = (
                st.prefetches_issued
                + st.prefetches_redundant
                + st.prefetches_throttled
                + st.prefetches_coalesced
            )
            if resolved != st.prefetches_requested:
                violations.append((
                    "prefetch-request-accounting",
                    f"{resolved} resolved prefetch requests != "
                    f"{st.prefetches_requested} requested",
                ))
        if self._nb:
            entries = self._mshr_entries
            outstanding = len(entries)
            if st.mshrs_allocated != st.mshrs_retired + outstanding:
                violations.append((
                    "mshr-conservation",
                    f"allocated {st.mshrs_allocated} != retired "
                    f"{st.mshrs_retired} + outstanding {outstanding}",
                ))
            if st.mshr_coalesced != st.l1d_partial_hits + st.prefetches_coalesced:
                violations.append((
                    "mshr-coalesce-accounting",
                    f"coalesced {st.mshr_coalesced} != partial hits "
                    f"{st.l1d_partial_hits} + coalesced prefetches "
                    f"{st.prefetches_coalesced}",
                ))
            live_targets = sum(e[3] for e in entries.values())
            if st.mshr_targets != st.mshr_targets_retired + live_targets:
                violations.append((
                    "mshr-target-accounting",
                    f"targets {st.mshr_targets} != retired "
                    f"{st.mshr_targets_retired} + live {live_targets}",
                ))
            if st.mshr_occupancy_peak > self.cfg.max_outstanding_misses:
                violations.append((
                    "mshr-occupancy",
                    f"peak occupancy {st.mshr_occupancy_peak} > "
                    f"MSHR file size {self.cfg.max_outstanding_misses}",
                ))
        if self._obs is not None:
            out = self._obs.outcomes
            used = out.counts[TIMELY] + out.counts[LATE]
            if (st.prefetches_useful, st.prefetches_issued) != (used, out.issued):
                violations.append((
                    "prefetch-outcome-agreement",
                    f"useful {st.prefetches_useful}, issued "
                    f"{st.prefetches_issued} != timely + late {used}, "
                    f"outcomes.issued {out.issued}",
                ))
        return violations

    # ------------------------------------------------------------------
    # Shared L2/memory path
    # ------------------------------------------------------------------

    def _acquire_mshr(self, time: int) -> int:
        """Returns the time the request can proceed given the MSHR limit."""
        done = self._mshr_done
        done[:] = [t for t in done if t > time]
        if len(done) >= self.cfg.max_outstanding_misses:
            time = min(done)
            done[:] = [t for t in done if t > time]
        return time

    def _release_mshr(self, done_time: int) -> None:
        self._mshr_done.append(done_time)

    def _mshr_alloc(self, line: int, ready: int, now: int) -> list[int]:
        """Non-blocking models: allocate the per-line MSHR entry for a
        primary miss issued at ``now`` (retiring entries whose fills have
        completed), recording the demand-priority and first-beat times
        :meth:`_l2_path` just computed.  Only ever called on miss paths —
        never on L1 hits."""
        st = self.stats
        entries = self._mshr_entries
        if entries:
            retired = [ln for ln, e in entries.items() if e[0] <= now]
            for ln in retired:
                st.mshr_targets_retired += entries.pop(ln)[3]
            st.mshrs_retired += len(retired)
        while len(entries) >= self.cfg.max_outstanding_misses:
            # The file is physically full (time-based pruning lags when
            # ``_mshr_done`` slots were freed at later I-fetch or prefetch
            # probe times): reuse the earliest-completing miss's slot.
            # Secondary misses to its line still merge on ``_inflight``
            # time — they just cannot attach to a recycled entry.
            victim = min(entries, key=lambda ln: entries[ln][0])
            st.mshr_targets_retired += entries.pop(victim)[3]
            st.mshrs_retired += 1
        entry = [ready, self._last_demand_ready, self._last_data_ready, 1]
        entries[line] = entry
        st.mshrs_allocated += 1
        st.mshr_targets += 1
        occ = len(entries)
        if occ > st.mshr_occupancy_peak:
            st.mshr_occupancy_peak = occ
        if self._mshr_hist is not None:
            self._mshr_hist.observe(occ)
        return entry

    def _l2_path(
        self,
        line_addr: int,
        time: int,
        fill_line_bytes: int,
        background: bool = False,
    ) -> int:
        """Request ``fill_line_bytes`` at ``line_addr`` from L2/memory at
        ``time``; returns the time the data arrives at the L1 boundary.
        ``background`` transfers (prefetches, store-miss fills) yield bus
        priority to demand transfers.

        Under non-blocking MSHR models this also records two side-channel
        times for the new MSHR entry: ``_last_demand_ready`` — what this
        fill's completion would be at demand bus priority (equal to the
        return value for demand transfers; always ``<=`` the background
        completion because the demand timelines never trail the ``_all``
        timelines) — and ``_last_data_ready`` — when the first beat (the
        critical word) of the L1 fill arrives."""
        cfg = self.cfg
        nb = self._nb
        t = time + cfg.l2.latency
        l2_hit = self.l2.access(line_addr)
        if l2_hit:
            dq = self._l2_bus_demand
            bus_start = max(t, self._l2_bus_all if background else dq)
            d_bus_start = max(t, dq) if nb and background else bus_start
            wb_held = dq > t
        else:
            # Main memory access, then fill L2.
            mem_start = max(
                t, self._mem_bus_all if background else self._mem_bus_demand
            )
            data_at_l2 = mem_start + cfg.memory_latency
            xfer = cfg.mem_bus.cycles_for(cfg.l2.line)
            mem_done = data_at_l2 + xfer
            if nb and background:
                d_mem_done = (
                    max(t, self._mem_bus_demand) + cfg.memory_latency + xfer
                )
            else:
                d_mem_done = mem_done
            self._mem_bus_all = max(self._mem_bus_all, mem_done)
            if not background:
                self._mem_bus_demand = max(self._mem_bus_demand, mem_done)
            self.stats.bytes_l2_mem += cfg.l2.line
            evicted, dirty = self.l2.fill(line_addr)
            if dirty:
                self.stats.bytes_l2_mem += cfg.l2.line
                self._mem_bus_all += cfg.mem_bus.cycles_for(cfg.l2.line)
            dq = self._l2_bus_demand
            bus_start = max(mem_done, self._l2_bus_all if background else dq)
            d_bus_start = max(d_mem_done, dq) if nb and background else bus_start
            wb_held = dq > mem_done
        xfer_l1 = cfg.l2_bus.cycles_for(fill_line_bytes)
        done = bus_start + xfer_l1
        self._l2_bus_all = max(self._l2_bus_all, done)
        if not background:
            self._l2_bus_demand = max(self._l2_bus_demand, done)
        self.stats.bytes_l1_l2 += fill_line_bytes
        if nb:
            self._last_demand_ready = d_bus_start + xfer_l1
            # Critical-word-first: the requested word rides the first
            # beat(s) of the L1 fill (one 4-byte mini-ISA word).
            self._last_data_ready = bus_start + cfg.l2_bus.cycles_for(4)
        if self._prof is not None:
            if nb and not background and wb_held and self._wb_until >= dq:
                # The demand bus wait was (at least) a writeback drain.
                self._prof._l2_source = "wb"
            else:
                self._prof._l2_source = "l2" if l2_hit else "mem"
        return done

    def _writeback_l1(self, line_addr: int) -> None:
        """Dirty L1 eviction.  Under ``blocking`` the victim drains as
        background traffic on the L2 bus; under the non-blocking models it
        additionally occupies demand bus slots — the fill that evicted it
        cannot use the port until the victim has drained — so write-back
        traffic contends with demand and prefetch transfers alike."""
        st = self.stats
        wb = self.cfg.l2_bus.cycles_for(self.cfg.dl1.line)
        st.bytes_l1_l2 += self.cfg.dl1.line
        st.writebacks_l1 += 1
        st.writeback_bus_cycles += wb
        self._l2_bus_all += wb
        if self._nb:
            self._l2_bus_demand += wb
            self._wb_until = self._l2_bus_demand
        if not self.l2.access(line_addr, write=True):
            # Allocate-on-writeback; memory traffic counted, timing folded
            # into bus occupancy.
            __, dirty = self.l2.fill(line_addr, dirty=True)
            self.stats.bytes_l2_mem += self.cfg.l2.line
            if dirty:
                self.stats.bytes_l2_mem += self.cfg.l2.line

    def _pf_use(self, line: int, time: int) -> bool:
        """A demand access at ``time`` uses ``line``: resolve its ledger
        record, if any, as useful.  Returns whether there was one."""
        rec = self._pf.pop(line, None)
        if rec is None:
            return False
        self.stats.prefetches_useful += 1
        if self._obs is not None:
            self._obs.outcomes.on_demand(rec, time)
        return True

    def _pf_evict(self, line: int) -> None:
        """``line`` left L1 or the prefetch buffer: a prefetched line
        leaving unused was fetched too early."""
        rec = self._pf.pop(line, None)
        if rec is not None and self._obs is not None:
            self._obs.outcomes.on_evict(rec)

    def drain_prefetches(self) -> list[PrefetchRecord]:
        """End of run: pop and return every unresolved ledger record."""
        leftover = list(self._pf.values())
        self._pf.clear()
        return leftover

    @property
    def prefetches_pending(self) -> int:
        """Issued prefetches the ledger has not resolved yet."""
        return len(self._pf)

    def _fill_l1(self, addr: int, dirty: bool) -> None:
        evicted, evicted_dirty = self.dl1.fill(addr, dirty=dirty)
        if evicted is not None:
            if evicted in self._pf:
                self._pf_evict(evicted)
            if evicted_dirty:
                self._writeback_l1(evicted)

    # ------------------------------------------------------------------
    # Demand data accesses
    # ------------------------------------------------------------------

    def data_access(
        self, addr: int, time: int, write: bool = False, lds: bool = False
    ) -> int:
        """Demand load/store of the word at ``addr`` starting at ``time``;
        returns the completion time."""
        st = self.stats
        if write:
            st.stores += 1
        else:
            st.loads += 1
        if self._perfect:
            if self._prof is not None and not write:
                self._prof.note_access("l1", 1)
            return time + 1

        time += self.dtlb.translate(addr)

        line = addr & self._dl1_line_mask
        inflight = self._inflight.get(line)
        if inflight is not None and inflight > time:
            # Merge with an in-flight miss (possibly a late prefetch).
            st.l1d_partial_hits += 1
            entry = None
            if self._nb:
                # Coalesce: join the in-flight entry's target list instead
                # of allocating an MSHR or re-walking the bus.
                st.mshr_coalesced += 1
                entry = self._mshr_entries.get(line)
                if entry is not None:
                    entry[3] += 1
                    st.mshr_targets += 1
            if self._pf_use(line, time):
                # Promote the background fill to demand priority.
                cap = time + self._demand_fill_estimate
                if inflight > cap:
                    inflight = cap
                    self._inflight[line] = cap
                    if entry is not None:
                        entry[0] = cap
            if entry is not None and not write:
                # A demand join promotes a background fill to its
                # demand-priority completion (never earlier than next
                # cycle); the promoted time sticks for later joins.
                promoted = entry[1]
                if promoted <= time:
                    promoted = time + 1
                if promoted < inflight:
                    inflight = promoted
                    self._inflight[line] = promoted
                    entry[0] = promoted
                if self._full:
                    # Hit during refill: served as the fill streams past,
                    # without waiting for the whole line to land.
                    early = entry[2]
                    floor = time + self.cfg.dl1.latency
                    if early < floor:
                        early = floor
                    if early < inflight:
                        st.refill_hits += 1
                        inflight = early
            if write and self.dl1.probe(addr):
                self.dl1.access(addr, write=True)  # dirty/LRU update
            elif self._prof is not None and not write:
                self._prof.note_access("merge", inflight - time)
            return inflight

        if self.dl1.access(addr, write=write):
            if line in self._pf:
                self._pf_use(line, time)
            if self._prof is not None and not write:
                self._prof.note_access("l1", self.cfg.dl1.latency)
            return time + self.cfg.dl1.latency

        if not write:
            st.load_misses += 1
            if lds:
                st.lds_load_misses += 1

        if self.pb is not None and self.pb.probe(line):
            # Prefetch-buffer hit: 1 cycle, install into L1.
            self.pb.invalidate(line)
            st.pb_hits += 1
            self._pf_use(line, time)
            self._fill_l1(addr, dirty=write)
            if self._prof is not None and not write:
                self._prof.note_access(
                    "pb", self.cfg.prefetch.prefetch_buffer.latency
                )
            return time + self.cfg.prefetch.prefetch_buffer.latency

        t = self._acquire_mshr(time + self.cfg.dl1.latency)
        ready = self._l2_path(line, t, self.cfg.dl1.line, background=write)
        self._release_mshr(ready)
        ret = ready
        if self._nb:
            self._mshr_alloc(line, ready, t)
            if self._full and not write:
                # Critical-word-first: the triggering load completes when
                # its word crosses the bus; the line lands at `ready`.
                cw = self._last_data_ready
                if cw < ret:
                    st.critical_word_returns += 1
                    ret = cw
        if self._prof is not None and not write:
            # _l2_path just recorded whether L2 hit or memory serviced it.
            self._prof.note_access(self._prof._l2_source, ret - time)
        obs = self._obs
        if obs is not None and not write:
            obs.miss_starts.append(time)
            obs.miss_ends.append(ret)
            trace = obs.trace
            if trace is not None:
                trace.complete("demand-miss", time, ret - time, cat="mem",
                               line=line, lds=lds)
                trace.instant("fill", ready, cat="mem", line=line)
        self._fill_l1(addr, dirty=write)
        self._inflight[line] = ready
        if len(self._inflight) > 4096:
            self._inflight = {
                ln: rt for ln, rt in self._inflight.items() if rt > time
            }
        return ret

    def jp_store(self, addr: int, time: int) -> None:
        """Hardware jump-pointer install (Figure 3b): a fire-and-forget
        store request.  Hits update the cached line; misses write around
        the L1 (no allocation, no MSHR) — the word travels to L2/memory on
        its own, which is counted as bandwidth but delays nobody."""
        if self.dl1.probe(addr):
            self.dl1.access(addr, write=True)
            return
        self.stats.bytes_l1_l2 += 4
        self._l2_bus_all += self.cfg.l2_bus.cycles_for(4)
        line = self.l2.line_addr(addr)
        if not self.l2.access(line, write=True):
            self.l2.fill(line, dirty=True)
            self.stats.bytes_l2_mem += self.cfg.l2.line

    # ------------------------------------------------------------------
    # Instruction fetch
    # ------------------------------------------------------------------

    def inst_fetch(self, addr: int, time: int) -> int:
        """Fetch the instruction line at ``addr``; returns ready time.

        The instruction side keeps the blocking model under every
        ``mshr_model`` (it shares the MSHR file's capacity but I-misses
        never coalesce into the data-side entry table)."""
        time += self.itlb.translate(addr)
        line = self.il1.line_addr(addr)
        if self.il1.access(addr):
            return time + self.cfg.il1.latency
        t = self._acquire_mshr(time + self.cfg.il1.latency)
        ready = self._l2_path(line, t, self.cfg.il1.line)
        self._release_mshr(ready)
        self.il1.fill(addr)
        return ready

    # ------------------------------------------------------------------
    # Prefetches
    # ------------------------------------------------------------------

    def probe_cached(self, addr: int, time: int) -> bool:
        """True if the line holding ``addr`` is in L1, the prefetch buffer,
        or already in flight (no prefetch request would be generated)."""
        line = addr & self._dl1_line_mask
        dl1 = self.dl1
        if line in dl1._sets[(line >> dl1._line_shift) & dl1._set_mask]:
            return True
        pb = self.pb
        if pb is not None:
            pl = line & pb._line_mask
            if pl in pb._sets[(pl >> pb._line_shift) & pb._set_mask]:
                return True
        inflight = self._inflight.get(line)
        return inflight is not None and inflight > time

    def prefetch_request(
        self, addr: int, time: int, kind: str = "chained", pc: int | None = None
    ) -> int | None:
        """Issue a (hardware or software) prefetch of the line at ``addr``.

        Returns the fill-completion time, or None if the request was
        redundant (line already cached, buffered, or in flight).  Under
        the non-blocking MSHR models a request to an in-flight line is
        *coalesced* — it joins that entry's target list and is counted
        separately from plain redundancy.  An issued prefetch enters the
        ledger as ``(kind, pc, fill)``; ``kind`` and ``pc`` (the
        triggering load's index) attribute its outcome.
        """
        st = self.stats
        st.prefetches_requested += 1
        if self._perfect:
            return None
        line = addr & self._dl1_line_mask
        if self.dl1.probe(line) or (self.pb is not None and self.pb.probe(line)):
            st.prefetches_redundant += 1
            return None
        inflight = self._inflight.get(line)
        if inflight is not None and inflight > time:
            if self._nb:
                st.prefetches_coalesced += 1
                st.mshr_coalesced += 1
                entry = self._mshr_entries.get(line)
                if entry is not None:
                    entry[3] += 1
                    st.mshr_targets += 1
            else:
                st.prefetches_redundant += 1
            return None

        # Prefetches wait for idle resources (the paper's PRQ rationale:
        # "to minimize resource contention"): they may not take the last
        # two MSHRs, which stay reserved for demand misses.  Bus occupancy
        # is not checked here; ``_l2_path`` issues the fill as a
        # background transfer, so demand transfers keep bus priority.
        self._mshr_done[:] = [t for t in self._mshr_done if t > time]
        if len(self._mshr_done) >= self.cfg.max_outstanding_misses - 2:
            st.prefetches_throttled += 1
            return None

        time += self.dtlb.translate(addr)
        t = self._acquire_mshr(time)
        ready = self._l2_path(line, t, self.cfg.dl1.line, background=True)
        self._release_mshr(ready)
        if self._nb:
            self._mshr_alloc(line, ready, t)
        st.prefetches_issued += 1
        obs = self._obs
        if obs is not None:
            obs.outcomes.record_issue()
            if obs.trace is not None:
                obs.trace.complete("prefetch", time, ready - time,
                                   cat="prefetch", line=line)
        if self.pb is not None:
            evicted, __ = self.pb.fill(line)
            if evicted is not None:
                self._pf_evict(evicted)
        else:
            self._fill_l1(addr, dirty=False)
        self._inflight[line] = ready
        self._pf[line] = (kind, pc, ready)
        return ready
