"""The three prefetch hardware configurations of the paper.

* :class:`DBPEngine` — dependence-based prefetching only (the comparison
  point from [16]): learns load-load dependences, speculatively unrolls the
  traversal kernel, chained prefetches pace serially at memory latency.
* :class:`CooperativeEngine` — DBP hardware plus the ``JPF`` interface:
  software jump-pointer prefetches trigger hardware chained prefetching
  (Section 3.2).
* :class:`HardwareJPPEngine` — DBP extended with the Jump Queue Table and
  Jump-pointer Register; jump-pointers are created at recurrent-load commit
  and used at recurrent-load issue (Section 3.3).  Implements chain jumping
  (queue jumping falls out automatically on backbone-only structures).

All three submit prefetches through
:meth:`~repro.mem.hierarchy.MemoryHierarchy.prefetch_request`, so their
interaction with the MSHR model is uniform: under ``blocking`` a
prefetch to an in-flight line is dropped as redundant, while under the
non-blocking models it coalesces into the line's demand MSHR (counted
``prefetches_coalesced``, joining the entry's target list) instead of
burning a prefetch-request-queue slot's bus walk.
"""

from __future__ import annotations

from ..config import PrefetchConfig
from ..errors import ConfigError
from ..isa.instruction import Instruction
from ..isa.opcodes import Op
from ..obs.outcomes import classify_timeliness
from ..registry import Registry
from .base import EngineStats, PrefetchEngine, SoftwarePrefetchEngine
from .dependence import DependencePredictor, ValueCorrelator
from .jqt import JumpPointerStorage, JumpQueueTable

#: Named prefetch-engine registry.  Schemes
#: (:mod:`repro.harness.schemes`) and the simulator dispatch by lookup;
#: :func:`register_engine` adds new engines without touching either.
ENGINES: Registry[type[PrefetchEngine]] = Registry(
    "prefetch engine", error=ConfigError
)


def register_engine(cls: type[PrefetchEngine]) -> type[PrefetchEngine]:
    """Class decorator adding an engine under its ``name`` attribute."""
    ENGINES.register(cls.name, cls)
    return cls


def engine_names() -> list[str]:
    return ENGINES.names()


register_engine(PrefetchEngine)          # "none"
register_engine(SoftwarePrefetchEngine)  # "software"


@register_engine
class DBPEngine(PrefetchEngine):
    """Dependence-based prefetching (no jump-pointers)."""

    name = "dbp"
    uses_prefetch_buffer = True
    needs_dataflow = True

    #: A (consumer, address) pair chased within this many cycles is not
    #: chased again — models the predictor declining to re-launch an
    #: already-outstanding unroll.
    RECHASE_WINDOW = 400
    #: Hard size bound on the re-chase table.  Eviction is windowed: once
    #: per elapsed window (or whenever the table overflows this bound)
    #: every entry too old to ever suppress again is dropped.  Trigger
    #: times are not monotone — chained fill times run up to
    #: ``MAX_CHAIN_DEPTH`` memory latencies ahead of the commit-time
    #: triggers, and completion times within the instruction window skew
    #: backwards — so aging is measured against a monotone high-water
    #: clock with a slack covering the machine's worst-case completion
    #: span (see :meth:`attach`); suppression only looks back one window,
    #: so entries beyond ``slack`` can never change a suppression
    #: decision and pruning is cycle-exact.
    RECHASE_TABLE_MAX = 65536
    #: Don't bother rebuilding tiny tables on the window cadence.
    RECHASE_PRUNE_MIN = 4096
    #: Prefetches one trigger event (a completed load or a jump-pointer
    #: prefetch) may spawn.  Models the pacing imposed by the 8-entry PRQ
    #: and the predictor's 2 queries/cycle: the speculative unroll proceeds
    #: a bounded distance per arrival rather than fanning out exponentially.
    CHASE_BUDGET = 16
    #: Hops one unroll may chain from its trigger; the other bound on the
    #: same unroll as ``CHASE_BUDGET``.
    MAX_CHAIN_DEPTH = 8

    def __init__(self, pcfg: PrefetchConfig | None = None) -> None:
        super().__init__(pcfg)
        self.predictor = DependencePredictor(self.pcfg)
        self.recurrent_pcs: set[int] = set()
        self._recent_chase: dict[tuple[int, int], int] = {}
        self._chase_tmax = 0  # monotone high-water mark of trigger times
        self._chase_pruned_at = 0
        self._chase_slack = 4 * self.RECHASE_WINDOW  # refined at attach()
        self._budget = 0

    def attach(self, *args, **kwargs) -> None:
        super().attach(*args, **kwargs)
        # Worst-case gap between the high-water trigger time and any later
        # trigger: in-flight completion times span at most the instruction
        # window's dependent-miss chain, plus the chained-prefetch unroll
        # runs MAX_CHAIN_DEPTH fills further ahead.  Per-hop cost is one
        # full memory access with generous queueing margin.
        cfg = self.cfg
        hop = cfg.memory_latency + cfg.l2.latency + 64
        self._chase_slack = self.RECHASE_WINDOW + hop * (
            cfg.window + self.MAX_CHAIN_DEPTH
        )

    # -- learning ------------------------------------------------------

    def _learn(
        self,
        inst: Instruction,
        addr: int,
        producer_pc: int | None,
        producer_value: int | float | None,
    ) -> None:
        if producer_pc is None or not isinstance(producer_value, int):
            return
        offset = addr - producer_value
        if self.predictor.learn(producer_pc, inst.index, offset):
            self.stats.correlations_learned += 1
            pc = inst.index
            if producer_pc == pc:
                self.recurrent_pcs.add(pc)
            else:
                # Mutual recursion (tree child loads feed each other).
                for cpc, __ in self.predictor.lookup_quiet(pc):
                    if cpc == producer_pc:
                        self.recurrent_pcs.add(pc)
                        self.recurrent_pcs.add(producer_pc)
                        break

    # -- chained prefetching -------------------------------------------

    def _trigger(self, producer_pc: int, value: int, time: int) -> None:
        """Start one unroll with a fresh chase budget."""
        self._budget = self.CHASE_BUDGET
        self._chase(producer_pc, value, time, self.MAX_CHAIN_DEPTH)

    def _chase(self, producer_pc: int, value: int, time: int, depth: int) -> None:
        """Speculatively unroll the traversal kernel from ``value``.

        Iterative depth-first formulation of the natural recursion (this is
        the simulation's hottest engine path).  Each frame keeps the
        re-chase dict reference it captured at entry — when a prune swaps
        in a rebuilt dict, outer frames intentionally keep consulting (and
        writing) the table they started with, matching the recursive
        version's closure-over-local behavior exactly.
        """
        if depth <= 0 or not self.valid_pointer(value):
            return
        lookup = self.predictor.lookup
        request = self.request
        peek = self.timing_mem.peek
        window = self.RECHASE_WINDOW
        prune_min = self.RECHASE_PRUNE_MIN
        table_max = self.RECHASE_TABLE_MAX
        heap_lo = self._heap_lo
        heap_hi = self._heap_hi
        slack = self._chase_slack
        budget = self._budget
        tmax = self._chase_tmax
        pruned_at = self._chase_pruned_at
        stack = [[value, time, depth, iter(lookup(producer_pc)),
                  self._recent_chase]]
        while stack:
            frame = stack[-1]
            value, time, depth, it, recent = frame
            descended = False
            for consumer_pc, offset in it:
                if budget <= 0:
                    # Cascaded early returns in the recursive form: every
                    # outer frame would bail at its next budget check with
                    # no further side effects.
                    stack.clear()
                    descended = True
                    break
                addr = value + offset
                if addr % 4 or addr < 0:
                    continue
                # One unroll step (this consumer at this address) is
                # launched at most once per window; a duplicate means the
                # same speculative kernel instance is already outstanding,
                # subtree included.
                key = (consumer_pc, addr)
                seen = recent.get(key)
                if seen is not None and time - seen < window:
                    continue
                recent[key] = time
                if time > tmax:
                    tmax = time
                if (
                    tmax - pruned_at >= window and len(recent) > prune_min
                ) or len(recent) > table_max:
                    cutoff = tmax - slack
                    self._recent_chase = recent = {
                        k: t for k, t in recent.items() if t >= cutoff
                    }
                    frame[4] = recent
                    pruned_at = tmax
                budget -= 1
                done = request(addr, time, pc=consumer_pc)
                if done is None:
                    continue
                nxt = peek(addr)
                if (
                    depth > 1 and isinstance(nxt, int) and nxt
                    and heap_lo <= nxt < heap_hi and not nxt % 4
                ):
                    stack.append([nxt, done, depth - 1,
                                  iter(lookup(consumer_pc)),
                                  self._recent_chase])
                    descended = True
                    break
            if not descended:
                stack.pop()
        self._budget = budget
        self._chase_tmax = tmax
        self._chase_pruned_at = pruned_at

    # -- auditing --------------------------------------------------------

    def audit_check(self, now: int) -> list[tuple[str, str]]:
        violations = super().audit_check(now)
        # Windowed eviction keeps everything younger than 4 windows, so a
        # burst may briefly overshoot RECHASE_TABLE_MAX; 2x is the point
        # where bookkeeping has genuinely stopped being bounded.
        if len(self._recent_chase) > 2 * self.RECHASE_TABLE_MAX:
            violations.append((
                "rechase-table-bound",
                f"{len(self._recent_chase)} re-chase entries > "
                f"bound {2 * self.RECHASE_TABLE_MAX}",
            ))
        if self._budget < 0:
            violations.append((
                "chase-budget-nonnegative", f"chase budget is {self._budget}"
            ))
        return violations

    # -- hooks -----------------------------------------------------------

    def on_load_commit(
        self,
        inst: Instruction,
        addr: int,
        value: int | float,
        time: int,
        producer_pc: int | None,
        producer_value: int | float | None,
    ) -> None:
        self._learn(inst, addr, producer_pc, producer_value)
        if isinstance(value, int) and value:
            self._trigger(inst.index, value, time)


@register_engine
class CooperativeEngine(DBPEngine):
    """DBP hardware driven by software jump-pointer prefetches (``JPF``)."""

    name = "cooperative"

    def __init__(self, pcfg: PrefetchConfig | None = None) -> None:
        super().__init__(pcfg)
        self.correlator = ValueCorrelator()

    def on_sw_prefetch(self, inst: Instruction, addr: int, time: int) -> None:
        if inst.op == Op.PF:
            self.sw_prefetch(inst, addr, time)
            return
        # JPF: hardware performs the second (non-binding) load of the
        # software prefetch pair: read the jump-pointer, prefetch its
        # target, and chain through the dependence predictor.
        jp = self.timing_mem.peek(addr)
        if not self.valid_pointer(jp):
            self.stats.jp_invalid += 1
            return
        self.correlator.record(jp, inst.index)
        done = self.request(jp, time, kind="jump", pc=inst.index)
        if done is not None:
            self._trigger(inst.index, jp, done)

    def on_load_commit(
        self,
        inst: Instruction,
        addr: int,
        value: int | float,
        time: int,
        producer_pc: int | None,
        producer_value: int | float | None,
    ) -> None:
        base = addr - inst.imm if isinstance(inst.imm, int) else None
        if base is not None:
            jpf_pc = self.correlator.match(base)
            if jpf_pc is not None and self.predictor.learn(
                jpf_pc, inst.index, inst.imm
            ):
                self.stats.correlations_learned += 1
        super().on_load_commit(inst, addr, value, time, producer_pc, producer_value)


@register_engine
class HardwareJPPEngine(DBPEngine):
    """DBP + JQT/JPR: fully automatic jump-pointer prefetching."""

    name = "hardware"
    needs_issue_hook = True

    #: a jump prefetch whose data sat unused this long is "too early"
    EARLY_SLACK = 800

    def __init__(self, pcfg: PrefetchConfig | None = None) -> None:
        super().__init__(pcfg)
        if self.pcfg.adaptive_interval:
            from .adaptive import AdaptiveJumpQueueTable

            self.jqt: JumpQueueTable = AdaptiveJumpQueueTable(self.pcfg)
        else:
            self.jqt = JumpQueueTable(self.pcfg)
        self.storage = JumpPointerStorage(self.pcfg)
        self._jump_outstanding: dict[int, tuple[int, int]] = {}

    def _adapt_feedback(self, addr: int, time: int) -> None:
        """Report a demand access's timeliness against an outstanding jump
        prefetch of its line to the adaptive JQT's ``observe``."""
        line = addr & self.line_mask
        record = self._jump_outstanding.pop(line, None)
        if record is None:
            return
        pc, done = record
        self.jqt.observe(
            pc, classify_timeliness(time, done, early_slack=self.EARLY_SLACK)
        )

    def on_load_issue(self, inst: Instruction, addr: int, time: int) -> None:
        pc = inst.index
        adaptive = self.pcfg.adaptive_interval
        if adaptive:
            self._adapt_feedback(addr, time)
        if pc not in self.recurrent_pcs:
            return
        if inst.pad <= 0 and not self.storage.onchip:
            return  # no padding: hardware has nowhere to look
        jp = self.storage.load(self.timing_mem, addr, inst.pad)
        if not self.valid_pointer(jp):
            return
        done = self.request(jp, time, kind="jump", pc=pc)
        if done is not None and isinstance(inst.imm, int):
            if adaptive:
                self._jump_outstanding[jp & self.line_mask] = (pc, done)
                if len(self._jump_outstanding) > 4096:
                    self._jump_outstanding.clear()
            node_base = jp - inst.imm
            self._trigger(pc, node_base, done)

    def on_load_commit(
        self,
        inst: Instruction,
        addr: int,
        value: int | float,
        time: int,
        producer_pc: int | None,
        producer_value: int | float | None,
    ) -> None:
        super().on_load_commit(inst, addr, value, time, producer_pc, producer_value)
        pc = inst.index
        if pc not in self.recurrent_pcs:
            return
        if inst.pad <= 0 and not self.storage.onchip:
            return
        home = self.jqt.advance(pc, addr)
        if home is None:
            return
        slot = self.storage.store(self.timing_mem, home, inst.pad, addr)
        self.stats.jp_stores += 1
        if slot is not None:
            # The jump-pointer store is real cache traffic (usually an L1
            # hit: the home node was referenced I hops ago; cold homes
            # write around without allocating).
            self.hierarchy.jp_store(slot, time)

    def audit_check(self, now: int) -> list[tuple[str, str]]:
        violations = super().audit_check(now)
        jqt = self.jqt
        if len(jqt._queues) > self.pcfg.jqt_entries:
            violations.append((
                "jqt-occupancy",
                f"{len(jqt._queues)} JQT entries > "
                f"capacity {self.pcfg.jqt_entries}",
            ))
        for pc, q in jqt._queues.items():
            if len(q) > jqt.max_interval:
                violations.append((
                    "jump-queue-depth",
                    f"pc {pc}: queue depth {len(q)} > "
                    f"interval limit {jqt.max_interval}",
                ))
        if (
            self.storage.onchip
            and len(self.storage._table) > self.pcfg.onchip_table_entries
        ):
            violations.append((
                "onchip-storage-capacity",
                f"{len(self.storage._table)} on-chip jump-pointers > "
                f"capacity {self.pcfg.onchip_table_entries}",
            ))
        if len(self._jump_outstanding) > 4096:
            violations.append((
                "jump-outstanding-bound",
                f"{len(self._jump_outstanding)} outstanding jump "
                f"prefetches > bound 4096",
            ))
        return violations


# The scheme zoo registers its engines here (it imports
# register_engine/DBPEngine from this partially-initialized module, which
# is safe because both are already bound).
from . import zoo  # noqa: E402,F401  (imported for registration side effect)
