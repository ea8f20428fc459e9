"""Cycle attribution: CPI stacks, per-load-site stall tables, and
per-level memory latency histograms.

The paper's headline results are stall-cycle decompositions (Figure 5
reports the fraction of load-stall cycles each scheme removes), so the
simulator needs to say not just *how many* cycles a run took but *where
they went*.  A :class:`Profiler` attaches to one simulation the same way
:class:`repro.obs.Telemetry` and :class:`repro.audit.Auditor` do: pass
``profile=Profiler()`` to :func:`repro.cpu.simulator.simulate` and the
timing model charges every committed instruction's commit-front advance
to exactly one CPI-stack bucket.  With no profiler attached the hot loop
pays a single ``is None`` check, so unprofiled runs stay bit-identical
and effectively free.

**Conservation law.**  The timing model commits in program order; each
committed instruction advances the commit front by
``delta = commit_time - previous_commit_time`` and the profiler charges
that delta to one bucket.  Summed over the run the deltas telescope to
the final cycle count, so ``sum(cpi_stack.values()) == cycles`` holds
*exactly* — not approximately — and :meth:`Profiler.audit_check` exposes
it to the :class:`repro.audit.Auditor` invariant sweep.

**Buckets.**  Classification looks at which pipeline stage lifted the
commit front, latest stage first:

* ``load.l1`` / ``load.pb`` / ``load.merge`` / ``load.l2`` / ``load.mem``
  / ``load.wb`` — a demand load's completion bound commit; split by where
  the hierarchy serviced it (L1 hit / prefetch-buffer hit / merged with
  an in-flight miss / L2 hit / main memory / demand bus held behind a
  dirty-victim writeback drain — the last only under the non-blocking
  ``mshr_model`` settings, which charge write-back traffic against demand
  bus slots).  Store-forwarded and perfect-memory loads count as
  ``load.l1``.
* ``fu`` — issue waited on a functional unit (or issue bandwidth)
  beyond operand readiness.
* ``window`` — dispatch waited for an instruction-window or LSQ slot.
* ``branch`` — fetch was held by a mispredict/BTB redirect.
* ``base`` — everything else: commit-width limits, register
  dependences, store/ALU latency chains.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .metrics import Histogram, MetricRegistry, exponential_buckets

if TYPE_CHECKING:  # pragma: no cover
    from ..isa.program import Program

#: Hierarchy service levels a demand load resolves at, nearest first
#: ("wb" = the demand bus wait was a writeback drain; non-blocking
#: mshr models only).
LEVELS = ("l1", "pb", "merge", "l2", "mem", "wb")

BASE = "base"
WINDOW = "window"
BRANCH = "branch"
FU = "fu"
LOAD_BUCKETS = tuple(f"load.{lvl}" for lvl in LEVELS)
#: All CPI-stack buckets, in display order.
BUCKETS = (BASE,) + LOAD_BUCKETS + (WINDOW, BRANCH, FU)

_LOAD_REASON = {lvl: f"load.{lvl}" for lvl in LEVELS}
_LOAD_SET = frozenset(LOAD_BUCKETS)

#: Demand-load service latency buckets: 1..4096 cycles, powers of two.
LATENCY_BOUNDS = exponential_buckets(1, 2, 13)


class SiteStats:
    """Per-static-load-site accumulator (keyed by pc)."""

    __slots__ = ("pc", "count", "stall_cycles", "latency_sum", "levels")

    def __init__(self, pc: int) -> None:
        self.pc = pc
        self.count = 0
        self.stall_cycles = 0
        self.latency_sum = 0
        self.levels = dict.fromkeys(LEVELS, 0)

    @property
    def misses(self) -> int:
        """Accesses serviced past L1 (merge counts: the data was not there)."""
        lv = self.levels
        return lv["pb"] + lv["merge"] + lv["l2"] + lv["mem"] + lv["wb"]


class Profiler:
    """Per-simulation cycle-attribution context.

    Mirrors the ``Telemetry``/``Auditor`` opt-in pattern: construct one,
    pass it to ``simulate(..., profile=...)``, read
    :attr:`~Profiler.buckets` / :attr:`~Profiler.sites` /
    :meth:`to_dict` afterwards.  One Profiler profiles one run.
    """

    def __init__(self, trace_interval: int = 4096) -> None:
        #: CPI-stack bucket -> cycles charged (conserved; see module doc).
        self.buckets: dict[str, int] = dict.fromkeys(BUCKETS, 0)
        #: (pc, reason) -> cycles: the re-keyed stall attribution table.
        self.stall_attribution: dict[tuple[int, str], int] = {}
        #: pc -> :class:`SiteStats` for every executed demand load site.
        self.sites: dict[int, SiteStats] = {}
        self.registry = MetricRegistry()
        #: Hierarchy-level -> demand-load service latency histogram.
        self.latency: dict[str, Histogram] = {
            lvl: self.registry.histogram(
                f"profile.latency.{lvl}",
                LATENCY_BOUNDS,
                help=f"demand-load service latency at {lvl}",
            )
            for lvl in LEVELS
        }
        self.cycles = 0
        self.instructions = 0
        self.finalized = False
        #: Emit a Chrome counter-track sample every this many charged cycles
        #: (only when the attached telemetry carries a trace).
        self.trace_interval = trace_interval
        self._last_level = "l1"
        self._l2_source = "mem"  # set by MemoryHierarchy._l2_path
        self._cycle = 0          # last commit front the profiler saw
        self._since_emit = 0
        self._trace = None
        self._program: "Program | None" = None
        self._outcomes = None

    # ------------------------------------------------------------------
    # Wiring (called once by TimingModel.run)
    # ------------------------------------------------------------------

    def attach(self, model) -> None:
        """Bind to a :class:`~repro.cpu.timing.TimingModel` before its run:
        grabs the program (for op/tag annotation) and, when telemetry is
        present, its trace (counter tracks) and outcome tracker (per-site
        prefetch outcome mix)."""
        self._program = model.program
        tele = getattr(model, "telemetry", None)
        if tele is not None:
            self._trace = tele.trace
            self._outcomes = tele.outcomes

    # ------------------------------------------------------------------
    # Hierarchy-facing hooks
    # ------------------------------------------------------------------

    def note_access(self, level: str, latency: int) -> None:
        """Called by the hierarchy on every demand-load return path."""
        self._last_level = level
        self.latency[level].observe(latency)

    # ------------------------------------------------------------------
    # Core-facing hooks (hot path; keep them small)
    # ------------------------------------------------------------------

    def on_load(self, pc: int, latency: int) -> str:
        """Record a demand load at ``pc`` serviced by the hierarchy;
        returns the CPI-stack reason should this load bind commit."""
        level = self._last_level
        site = self.sites.get(pc)
        if site is None:
            site = self.sites[pc] = SiteStats(pc)
        site.count += 1
        site.latency_sum += latency
        site.levels[level] += 1
        return _LOAD_REASON[level]

    def on_forward(self, pc: int, latency: int) -> str:
        """A load satisfied by store-to-load forwarding (never left the
        core): counts as an L1-class access for the site mix."""
        site = self.sites.get(pc)
        if site is None:
            site = self.sites[pc] = SiteStats(pc)
        site.count += 1
        site.latency_sum += latency
        site.levels["l1"] += 1
        return "load.l1"

    def charge(self, pc: int, reason: str, delta: int, cycle: int) -> None:
        """Charge a commit-front advance of ``delta`` cycles at ``pc`` to
        one CPI-stack bucket; the timing model calls this for every
        committed instruction with a nonzero delta."""
        self.buckets[reason] += delta
        key = (pc, reason)
        sa = self.stall_attribution
        sa[key] = sa.get(key, 0) + delta
        if reason in _LOAD_SET:
            self.sites[pc].stall_cycles += delta
        self._cycle = cycle
        trace = self._trace
        if trace is not None:
            self._since_emit += delta
            if self._since_emit >= self.trace_interval:
                self._since_emit = 0
                self._emit_counters(cycle)

    # ------------------------------------------------------------------

    def _emit_counters(self, cycle: int) -> None:
        self._trace.counter("cpi_stack", cycle, dict(self.buckets))
        self._trace.counter(
            "load_level",
            cycle,
            {lvl: h.count for lvl, h in self.latency.items()},
        )

    def on_finish(self, model, instructions: int, cycles: int) -> None:
        """End of run: freeze totals and flush a final counter sample."""
        self.instructions = instructions
        self.cycles = cycles
        self.finalized = True
        if self._trace is not None:
            self._emit_counters(cycles)

    # ------------------------------------------------------------------
    # Auditing
    # ------------------------------------------------------------------

    def audit_check(self, cycle: int | None = None) -> list[tuple[str, str]]:
        """Invariant sweep for :class:`repro.audit.Auditor`.

        * **cpi-conservation** — the CPI-stack buckets sum exactly to the
          commit front (at end of run: to total cycles).
        * **cpi-cycle-sync** — the profiler's view of the commit front
          matches the caller's (the charge stream missed a commit if not).
        * **cpi-nonnegative** — no bucket ever goes negative.
        """
        violations: list[tuple[str, str]] = []
        total = sum(self.buckets.values())
        if total != self._cycle:
            violations.append((
                "cpi-conservation",
                f"CPI-stack buckets sum to {total} != commit front "
                f"{self._cycle}",
            ))
        if cycle is not None and self._cycle != cycle:
            violations.append((
                "cpi-cycle-sync",
                f"profiler commit front {self._cycle} != model commit "
                f"front {cycle}",
            ))
        for bucket, value in self.buckets.items():
            if value < 0:
                violations.append((
                    "cpi-nonnegative",
                    f"bucket {bucket!r} went negative: {value}",
                ))
        return violations

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def _annotate(self, pc: int) -> tuple[str, str | None, bool]:
        prog = self._program
        if prog is None or pc >= len(prog.instructions):
            return "?", None, False
        si = prog.instructions[pc]
        return si.op.name, si.tag, si.tag == "lds"

    def to_dict(self) -> dict:
        """Schema-stable profile payload (embedded in
        ``SimResult.to_dict()``, and so in ``run -o`` artifacts)."""
        outcomes_by_pc = (
            self._outcomes.by_pc if self._outcomes is not None else {}
        )
        sites = []
        for site in sorted(
            self.sites.values(), key=lambda s: (-s.stall_cycles, s.pc)
        ):
            op, tag, lds = self._annotate(site.pc)
            row = {
                "pc": site.pc,
                "op": op,
                "tag": tag,
                "lds": lds,
                "count": site.count,
                "stalls": site.stall_cycles,
                "misses": site.misses,
                "latency_sum": site.latency_sum,
                "levels": dict(site.levels),
            }
            mix = outcomes_by_pc.get(site.pc)
            if mix:
                row["outcomes"] = dict(mix)
            sites.append(row)
        return {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "cpi_stack": dict(self.buckets),
            "sites": sites,
            "stall_attribution": [
                [pc, reason, cyc]
                for (pc, reason), cyc in sorted(
                    self.stall_attribution.items(),
                    key=lambda kv: (-kv[1], kv[0]),
                )
            ],
            "latency": {lvl: h.to_dict() for lvl, h in self.latency.items()},
        }


# ----------------------------------------------------------------------
# Report rows (consumed by the CLI's table renderer and by tests)
# ----------------------------------------------------------------------


def cpi_stack_rows(profile: dict) -> list[dict]:
    """CPI-stack table rows from a :meth:`Profiler.to_dict` payload."""
    cycles = profile["cycles"] or 1
    insts = profile["instructions"] or 1
    stack = profile["cpi_stack"]
    rows = []
    for bucket in BUCKETS:
        cyc = stack.get(bucket, 0)
        rows.append({
            "bucket": bucket,
            "cycles": cyc,
            "share": round(cyc / cycles, 4),
            "cpi": round(cyc / insts, 4),
        })
    return rows


def hot_site_rows(profile: dict, top: int = 10) -> list[dict]:
    """Ranked hot-load-site rows (highest stall cycles first)."""
    cycles = profile["cycles"] or 1
    rows = []
    for rank, site in enumerate(profile["sites"][:top], start=1):
        count = site["count"] or 1
        label = site["op"]
        if site["tag"]:
            label += f".{site['tag']}"
        out = site.get("outcomes") or {}
        rows.append({
            "rank": rank,
            "pc": site["pc"],
            "site": label,
            "count": site["count"],
            "stalls": site["stalls"],
            "share": round(site["stalls"] / cycles, 4),
            "miss%": round(100.0 * site["misses"] / count, 1),
            "levels": "/".join(str(site["levels"][lvl]) for lvl in LEVELS),
            "outcomes": "/".join(f"{k}:{v}" for k, v in sorted(out.items())),
        })
    return rows


def latency_rows(profile: dict) -> list[dict]:
    """Per-hierarchy-level demand-load latency summary rows."""
    rows = []
    for lvl in LEVELS:
        h = profile["latency"][lvl]
        rows.append({
            "level": lvl,
            "count": h["count"],
            "mean": round(h["mean"], 2),
            "min": h["min"] if h["min"] is not None else "-",
            "max": h["max"] if h["max"] is not None else "-",
        })
    return rows
