"""Prefetch engine interface and shared request-queue model.

An engine is attached to one simulation.  The timing model calls:

* :meth:`on_load_issue`   — every demand load, at issue time (hardware JPP
  reads the jump-pointer of the accessed node here).
* :meth:`on_load_commit`  — every demand load, at commit time, with the
  originating-load provenance of its base register (DBP learning/trigger,
  JQT update + jump-pointer store).
* :meth:`on_sw_prefetch`  — every ``PF``/``JPF`` instruction, at issue time.

Prefetch requests are admitted through the 8-entry prefetch request queue
(PRQ), which issues at the engine's query bandwidth when data-cache ports
are idle; requests arriving at a full queue are dropped (Table 2).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from typing import TYPE_CHECKING

from ..config import MachineConfig, PrefetchConfig
from ..isa.instruction import Instruction
from ..mem.hierarchy import MemoryHierarchy
from ..mem.memory_image import MemoryImage

if TYPE_CHECKING:  # pragma: no cover
    from ..obs import Telemetry


@dataclass
class EngineStats:
    sw_prefetches: int = 0
    jump_prefetches: int = 0
    chained_prefetches: int = 0
    prq_drops: int = 0
    jp_stores: int = 0
    jp_invalid: int = 0
    correlations_learned: int = 0
    extra: dict[str, int] = field(default_factory=dict)


class PrefetchEngine:
    """Base class: no prefetching (the unoptimized baseline)."""

    name = "none"
    uses_prefetch_buffer = False
    needs_issue_hook = False
    needs_dataflow = False

    def __init__(self, pcfg: PrefetchConfig | None = None) -> None:
        self.pcfg = pcfg or PrefetchConfig()
        self.stats = EngineStats()
        self.hierarchy: MemoryHierarchy | None = None
        self.timing_mem: MemoryImage | None = None
        self._heap_lo = 0
        self._heap_hi = 0
        self._prq: deque[int] = deque()
        self._prq_last_issue = -1
        self.obs: "Telemetry | None" = None
        self._prq_hist = None

    # ------------------------------------------------------------------

    def attach(
        self,
        hierarchy: MemoryHierarchy,
        timing_mem: MemoryImage,
        heap_lo: int,
        heap_hi: int,
        cfg: MachineConfig,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        self.hierarchy = hierarchy
        self.timing_mem = timing_mem
        self._heap_lo = heap_lo
        self._heap_hi = heap_hi
        self.cfg = cfg
        self.line_mask = ~(cfg.dl1.line - 1)
        self.obs = telemetry
        if telemetry is not None:
            from ..obs import linear_buckets

            self._prq_hist = telemetry.registry.histogram(
                "prefetch.prq_occupancy",
                linear_buckets(0, 1, self.pcfg.prq_entries + 1),
                help="PRQ entries in use, sampled at each admission",
            )

    def valid_pointer(self, value: object) -> bool:
        """Heuristic pointer test used before chasing a prefetch address."""
        return (
            isinstance(value, int)
            and self._heap_lo <= value < self._heap_hi
            and value % 4 == 0
        )

    # ------------------------------------------------------------------
    # PRQ
    # ------------------------------------------------------------------

    def _admit(self, time: int) -> int | None:
        """Admit a prefetch request to the PRQ at ``time``.

        Returns the time the request actually issues, or None if the queue
        is full and the request is dropped.
        """
        q = self._prq
        while q and q[0] <= time:
            q.popleft()
        if len(q) >= self.pcfg.prq_entries:
            self.stats.prq_drops += 1
            return None
        issue = max(time, self._prq_last_issue + 1)
        self._prq_last_issue = issue
        q.append(issue)
        if self._prq_hist is not None:
            self._prq_hist.observe(len(q))
        return issue

    def request(
        self, addr: int, time: int, kind: str = "chained", pc: int | None = None
    ) -> int | None:
        """PRQ-admit and issue one prefetch; returns the time the target
        data is available (fill time, or now for already-cached lines), or
        None if the PRQ was full and the request dropped.  ``pc`` (the
        triggering load's index) attributes the outcome per-PC."""
        if self.hierarchy.probe_cached(addr, time):
            # Already cached/buffered/in flight: no request is generated.
            return time + 1
        t = self._admit(time)
        if t is None:
            if self.obs is not None:
                self.obs.outcomes.record_drop(kind, pc)
            return None
        if kind == "jump":
            self.stats.jump_prefetches += 1
        elif kind == "sw":
            self.stats.sw_prefetches += 1
        else:
            self.stats.chained_prefetches += 1
        done = self.hierarchy.prefetch_request(addr, t, kind, pc)
        return done if done is not None else t

    # ------------------------------------------------------------------
    # Auditing
    # ------------------------------------------------------------------

    def audit_check(self, now: int) -> list[tuple[str, str]]:
        """Invariant sweep for :class:`repro.audit.Auditor`; subclasses
        extend with their own structure bounds.  Returns
        ``(invariant, message)`` pairs for every violated law."""
        violations: list[tuple[str, str]] = []
        if len(self._prq) > self.pcfg.prq_entries:
            violations.append((
                "prq-occupancy",
                f"{len(self._prq)} PRQ entries > "
                f"capacity {self.pcfg.prq_entries}",
            ))
        return violations

    # ------------------------------------------------------------------
    # Hooks (no-ops in the baseline)
    # ------------------------------------------------------------------

    def on_load_issue(self, inst: Instruction, addr: int, time: int) -> None:
        pass

    def on_load_commit(
        self,
        inst: Instruction,
        addr: int,
        value: int | float,
        time: int,
        producer_pc: int | None,
        producer_value: int | float | None,
    ) -> None:
        pass

    def on_sw_prefetch(self, inst: Instruction, addr: int, time: int) -> None:
        pass

    def sw_prefetch(self, inst: Instruction, addr: int, time: int) -> None:
        """Execute a non-binding ``PF`` of ``addr``: it goes straight to
        the hierarchy (no PRQ), tagged ``"sw"`` for outcome telemetry."""
        self.stats.sw_prefetches += 1
        self.hierarchy.prefetch_request(addr, time, "sw", inst.index)


class SoftwarePrefetchEngine(PrefetchEngine):
    """Executes the program's non-binding ``PF`` instructions.

    There is no prefetch hardware: software prefetches fill the L1 data
    cache directly and ``JPF`` (if present) degrades to a plain address
    prefetch of the jump-pointer's block — software-only programs instead
    use explicit two-instruction (load + ``PF``) sequences.
    """

    name = "software"

    on_sw_prefetch = PrefetchEngine.sw_prefetch
