"""Out-of-order core timing model.

A dataflow-with-resources model of the paper's Table-2 machine: each
committed instruction's fetch, dispatch, issue, completion and commit times
are computed in program order, constrained by

* fetch width and instruction-cache line fetches (with ITLB),
* the 64-entry instruction window (dispatch stalls when the instruction
  ``window`` ago has not committed) and the 32-entry load/store queue,
* true register dependences (last-writer completion times),
* issue width and the Table-2 functional unit pool (unpipelined divides),
* two cache ports; loads wait for all previous store addresses and forward
  from in-flight stores with a 1-cycle bypass,
* the memory hierarchy of :mod:`repro.mem.hierarchy` (MSHRs — blocking,
  coalescing or full per ``MachineConfig.mshr_model`` — buses, TLBs),
* branch mispredictions: fetch redirects at branch resolution plus a
  front-end refill penalty; BTB misses on taken branches and RAS misses on
  returns cost a decode-stage redirect.

Wrong-path instructions are not simulated (their fetch slots are subsumed
by the redirect penalty); see DESIGN.md for the substitution note.
"""

from __future__ import annotations

from collections import deque
from heapq import heapreplace

from ..config import MachineConfig
from ..isa.instruction import TEXT_BASE
from ..isa.interpreter import Interpreter
from ..isa.opcodes import FU_CLASS, FuClass, Op
from ..isa.program import Program
from ..isa.registers import NUM_REGS
from ..mem.allocator import CLASS_REGION, MIN_CLASS, MAX_CLASS
from ..mem.hierarchy import MemoryHierarchy
from ..mem.memory_image import MemoryImage
from ..prefetch.base import PrefetchEngine
from .branch_pred import BranchPredictor
from .stats import SimResult

_DISPATCH_EXTRA = 1  # cycles from dispatch to earliest issue

#: ``issued_at`` is pruned down whenever it exceeds this many entries …
_ISSUED_AT_PRUNE_THRESHOLD = 200_000
#: … checked once every this many commits (so between checks it can grow
#: by at most the same amount again; the audit invariant uses the sum).
_ISSUED_AT_PRUNE_INTERVAL = 65536


def periodic_due(n_committed: int, interval: int) -> bool:
    """True on every ``interval``-th commit, and never at commit zero.

    ``n % interval == 0`` alone is truthy at ``n == 0``, which made the
    periodic maintenance hook fire before the first commit.  The timing
    loop precomputes its due points with :func:`_next_periodic`, which
    must agree with this predicate.
    """
    return bool(n_committed) and n_committed % interval == 0


def _next_periodic(n_committed: int, audit_every: int) -> int:
    """The first commit count after ``n_committed`` at which the timing
    loop's periodic work is due: an ``issued_at`` prune check or (when
    ``audit_every`` is non-zero) an audit sweep.  Never zero, matching
    :func:`periodic_due`."""
    due = (n_committed // _ISSUED_AT_PRUNE_INTERVAL + 1) * _ISSUED_AT_PRUNE_INTERVAL
    if audit_every:
        audit_due = (n_committed // audit_every + 1) * audit_every
        if audit_due < due:
            due = audit_due
    return due


def heap_range(heap_base: int) -> tuple[int, int]:
    """Address range the size-class allocator can hand out."""
    classes = 0
    c = MIN_CLASS
    while c <= MAX_CLASS:
        classes += 1
        c <<= 1
    return heap_base, heap_base + classes * CLASS_REGION


class TimingModel:
    """Runs one program to completion under one machine + engine."""

    def __init__(
        self,
        program: Program,
        cfg: MachineConfig,
        engine: PrefetchEngine | None = None,
        max_steps: int | None = None,
        telemetry=None,
        audit=None,
        interpreter_factory=None,
        profile=None,
    ) -> None:
        self.auditor = audit
        self.profiler = profile
        # The differential audit substitutes its reference interpreter
        # here; everything else runs the decode-table Interpreter.
        self._interpreter_factory = interpreter_factory or Interpreter
        self.program = program
        self.cfg = cfg
        self.telemetry = telemetry
        self.engine = engine or PrefetchEngine()
        self.hierarchy = MemoryHierarchy(
            cfg,
            use_prefetch_buffer=self.engine.uses_prefetch_buffer,
        )
        self.hierarchy.set_telemetry(telemetry)
        if self.profiler is not None:
            self.hierarchy.set_profiler(self.profiler)
        self.timing_mem = MemoryImage(program.initial_memory)
        lo, hi = heap_range(program.heap_base)
        self.engine.attach(
            self.hierarchy, self.timing_mem, lo, hi, cfg, telemetry=telemetry
        )
        self.bpred = BranchPredictor(cfg.branch_pred)
        self._max_steps = max_steps

    @property
    def stall_attribution(self) -> dict[tuple[int, str], int]:
        """Commit-stall cycles keyed by ``(pc, reason)`` — lives on the
        attached :class:`~repro.obs.profile.Profiler` (empty when
        profiling is off)."""
        return self.profiler.stall_attribution if self.profiler is not None else {}

    # ------------------------------------------------------------------

    # Per-instruction kinds (meta field ``kind``), numbered in the order
    # the hot loop tests them: most frequent first.
    (_K_ALU, _K_LW, _K_SW, _K_BR, _K_JR, _K_J, _K_JAL, _K_PF, _K_ALLOC,
     _K_HALT) = range(10)
    # Register-write kinds (meta field ``wrkind``) of ALU-style writes;
    # loads write their destination in their own execute branch.
    _WR_NONE, _WR_PLAIN, _WR_ADDI, _WR_ADD = range(4)
    #: Index of a scoreboard slot no instruction writes: the second
    #: source of instructions that read only one register.
    _NO_REG = NUM_REGS

    def _instruction_meta(
        self, fu_free: dict, fu_latency: dict, iline_mask: int
    ) -> list[tuple]:
        """Per-static-instruction tuples precomputing everything the hot
        loop would otherwise re-derive per dynamic instruction: the kind,
        I-cache line, FU binding and latencies, and the operand fields.
        Indexed by ``inst.index``."""
        unpipelined = (FuClass.INT_DIV, FuClass.FP_DIV)
        one_source = (Op.ADDI, Op.LW, Op.PF, Op.JPF, Op.SW)
        mem_kinds = {Op.LW: self._K_LW, Op.SW: self._K_SW,
                     Op.PF: self._K_PF, Op.JPF: self._K_PF}
        insts = self.program.instructions
        meta: list[tuple] = [()] * len(insts)
        for si in insts:
            op = si.op
            fu = FU_CLASS[op]
            frees = fu_free[fu] if fu is not FuClass.NONE else None
            lat = fu_latency.get(fu, 1)
            fu_occ = lat if fu in unpipelined else 1
            cdelta = lat if frees is not None else 1
            if op in mem_kinds:
                kind = mem_kinds[op]
            elif op is Op.ALLOC:
                kind = self._K_ALLOC
            elif op is Op.HALT:
                kind = self._K_HALT
            elif op is Op.JR:
                kind = self._K_JR
            elif si.target is None:
                kind = self._K_ALU
            elif op is Op.J:
                kind = self._K_J
            elif op is Op.JAL:
                kind = self._K_JAL
            else:
                kind = self._K_BR
            if op in mem_kinds or not si.rd or fu is FuClass.NONE:
                wrkind = self._WR_NONE
            elif op is Op.ADDI:
                wrkind = self._WR_ADDI
            elif op is Op.ADD:
                wrkind = self._WR_ADD
            else:
                wrkind = self._WR_PLAIN
            meta[si.index] = (
                kind,                                     # 0
                (TEXT_BASE + 4 * si.index) & iline_mask,  # 1: I-cache line
                op in mem_kinds,                          # 2: holds an LSQ slot
                si.rs1,                                   # 3
                self._NO_REG if op in one_source else si.rs2,  # 4: 2nd source
                frees,                                    # 5: FU free-time heap
                fu_occ,                                   # 6: FU occupancy
                cdelta,                                   # 7: issue->complete
                si.rd,                                    # 8
                si.rs2,                                   # 9
                si.target,                                # 10
                si.tag == "lds",                          # 11
                si.index,                                 # 12
                wrkind,                                   # 13
            )
        return meta

    def run(self) -> SimResult:
        cfg = self.cfg
        engine = self.engine
        hierarchy = self.hierarchy
        # Store addresses were alignment-checked by the interpreter.
        timing_words = self.timing_mem._words
        bpred = self.bpred
        fu_cfg = cfg.func_units

        interp = self._interpreter_factory(
            self.program, max_steps=self._max_steps
        )

        auditor = self.auditor
        audit_every = 0
        if auditor is not None:
            auditor.attach(self)
            audit_every = auditor.interval

        # Register scoreboard (plus the never-written ``_NO_REG`` slot)
        # and (optional) load provenance.
        reg_ready = [0] * (NUM_REGS + 1)
        track_dataflow = engine.needs_dataflow
        src_pc: list[int | None] = [None] * NUM_REGS
        src_val: list[int | float | None] = [None] * NUM_REGS
        issue_hook = engine.needs_issue_hook

        # Window / LSQ: commit times of the last ``window`` instructions
        # (of the last ``lsq_entries`` memory instructions), oldest first.
        # Zero-filled, so the head is always the entry that must have
        # committed before the next one dispatches.
        window = cfg.window
        lsq_entries = cfg.lsq_entries
        rob: deque[int] = deque([0] * window, maxlen=window)
        lsq: deque[int] = deque([0] * lsq_entries, maxlen=lsq_entries)
        rob_append, lsq_append = rob.append, lsq.append

        # Fetch state.
        fetch_cycle = 0
        fetch_count = 0
        fetch_width = cfg.fetch_width
        redirect_floor = 0
        cur_line = -1
        redirected_at = -1  # commit index of the last redirected fetch
        iline_mask = ~(cfg.il1.line - 1)
        front = cfg.front_pipeline_depth
        il1_latency = cfg.il1.latency
        inst_fetch = hierarchy.inst_fetch
        data_access = hierarchy.data_access

        # Issue bandwidth and functional units.  Each class's units are
        # interchangeable, so a min-heap of their free times stands in
        # for "pick the earliest-free unit".
        issue_width = cfg.issue_width
        issued_at: dict[int, int] = {}
        issued_get = issued_at.get
        fu_free: dict[int, list[int]] = {
            FuClass.INT_ALU: [0] * fu_cfg.int_alu,
            FuClass.INT_MUL: [0] * fu_cfg.int_mul,
            FuClass.INT_DIV: [0] * fu_cfg.int_div,
            FuClass.FP_ADD: [0] * fu_cfg.fp_add,
            FuClass.FP_MUL: [0] * fu_cfg.fp_mul,
            FuClass.FP_DIV: [0] * fu_cfg.fp_div,
            FuClass.MEM_PORT: [0] * fu_cfg.mem_ports,
        }
        fu_latency = {
            FuClass.INT_ALU: fu_cfg.int_alu_latency,
            FuClass.INT_MUL: fu_cfg.int_mul_latency,
            FuClass.INT_DIV: fu_cfg.int_div_latency,
            FuClass.FP_ADD: fu_cfg.fp_add_latency,
            FuClass.FP_MUL: fu_cfg.fp_mul_latency,
            FuClass.FP_DIV: fu_cfg.fp_div_latency,
            FuClass.MEM_PORT: fu_cfg.mem_port_latency,
        }
        meta = self._instruction_meta(fu_free, fu_latency, iline_mask)

        # Store tracking for LSQ semantics.
        store_addr_floor = 0  # prefix max of store address-ready times
        pending_stores: dict[int, tuple[int, int]] = {}  # addr -> (data_ready, commit)
        ps_get = pending_stores.get

        # Commit state.
        last_commit = 0
        commit_count = 0
        commit_width = cfg.commit_width

        mispredict_penalty = cfg.branch_pred.misprediction_penalty
        alloc_latency = cfg.alloc_latency
        trace = self.telemetry.trace if self.telemetry is not None else None

        # Optional profiler: when detached the hot loop pays only the
        # ``profiling`` truth check (same contract as telemetry/audit).
        profiler = self.profiler
        profiling = profiler is not None
        if profiling:
            profiler.attach(self)
            prof_charge = profiler.charge
            prof_on_load = profiler.on_load
            prof_on_forward = profiler.on_forward
        load_reason = "load.l1"

        predict_cond = bpred.predict_cond
        predict_jump = bpred.predict_jump
        predict_return = bpred.predict_return
        on_call = bpred.on_call
        on_load_issue = engine.on_load_issue
        on_load_commit = engine.on_load_commit
        on_sw_prefetch = engine.on_sw_prefetch

        n_committed = 0
        n_loads = 0
        n_stores = 0
        n_lds_loads = 0
        # The commit count at which the periodic work (issued_at prune,
        # audit sweep) is next due.
        next_check = _next_periodic(0, audit_every)

        _K_ALU, _K_LW, _K_SW, _K_BR = (
            self._K_ALU, self._K_LW, self._K_SW, self._K_BR
        )
        _K_JR, _K_J, _K_JAL, _K_PF, _K_ALLOC = (
            self._K_JR, self._K_J, self._K_JAL, self._K_PF, self._K_ALLOC
        )
        _WR_ADDI, _WR_ADD = self._WR_ADDI, self._WR_ADD

        for inst, addr, value, taken in interp.run():
            (kind, line, is_mem, rs1, src2, frees, fu_occ, cdelta, rd, rs2,
             target, is_lds, idx, wrkind) = meta[inst.index]

            # ---------------- fetch ----------------
            # The instruction's fetch time ends up in ``fetch_cycle``.  A
            # line already being fetched from is ready by ``fetch_cycle``,
            # so only a redirect or a new line can move the fetch group.
            if redirect_floor > fetch_cycle or line != cur_line:
                t = fetch_cycle
                if redirect_floor > t:
                    t = redirect_floor
                    redirected_at = n_committed
                if line != cur_line:
                    cur_line = line
                    t2 = inst_fetch(line, t) - il1_latency
                    if t2 > t:
                        t = t2
                if t > fetch_cycle:
                    fetch_cycle = t
                    fetch_count = 0
            fetch_count += 1
            if fetch_count > fetch_width:
                fetch_cycle += 1
                fetch_count = 1

            # ---------------- dispatch ----------------
            dispatch = fetch_cycle + front
            t = rob[0]
            if t > dispatch:
                dispatch = t
            if is_mem:
                t = lsq[0]
                if t > dispatch:
                    dispatch = t

            # ---------------- operand readiness ----------------
            # A store's address generation does not wait for its data; the
            # data register is folded in at completion below.
            issue = dispatch + _DISPATCH_EXTRA
            t = reg_ready[rs1]
            if t > issue:
                issue = t
            t = reg_ready[src2]
            if t > issue:
                issue = t
            dep_ready = issue  # operand readiness before FU/width waits

            # ---------------- issue (width + FU) ----------------
            if frees is not None:
                t = frees[0]
                if t > issue:
                    issue = t
                t = issued_get(issue, 0)
                while t >= issue_width:
                    issue += 1
                    t = issued_get(issue, 0)
                issued_at[issue] = t + 1
                heapreplace(frees, issue + fu_occ)

            # ---------------- execute + control resolution ----------------
            if kind == _K_ALU:
                complete = issue + cdelta
            elif kind == _K_LW:
                n_loads += 1
                if is_lds:
                    n_lds_loads += 1
                start = issue
                if store_addr_floor > start:
                    start = store_addr_floor
                if trace is not None:
                    trace.instant(
                        "load-issue", start, cat="core",
                        pc=idx, addr=addr, lds=is_lds,
                    )
                if issue_hook:
                    on_load_issue(inst, addr, start)
                fwd = ps_get(addr)
                if fwd is not None and fwd[1] > start:
                    complete = (start if start > fwd[0] else fwd[0]) + 1
                    if profiling:
                        load_reason = prof_on_forward(idx, complete - start)
                else:
                    complete = data_access(addr, start, False, is_lds)
                    if profiling:
                        load_reason = prof_on_load(idx, complete - start)
                reg_ready[rd] = complete
            elif kind == _K_SW:
                n_stores += 1
                # Address is known at issue (AGU); later loads wait only for
                # the address, not the data.
                if issue > store_addr_floor:
                    store_addr_floor = issue
                t = reg_ready[rs2]
                complete = (t if t > issue else issue) + 1
            elif kind == _K_BR:
                complete = issue + cdelta
                dir_ok, tgt_ok = predict_cond(idx, taken, target)
                if not dir_ok:
                    t = complete + mispredict_penalty
                    if t > redirect_floor:
                        redirect_floor = t
                elif taken and not tgt_ok:
                    t = fetch_cycle + front
                    if t > redirect_floor:
                        redirect_floor = t
            elif kind == _K_JR:
                complete = issue + cdelta
                if not predict_return(value):
                    t = complete + mispredict_penalty
                    if t > redirect_floor:
                        redirect_floor = t
            elif kind == _K_J or kind == _K_JAL:
                complete = issue + cdelta
                known = predict_jump(idx, target)
                if kind == _K_JAL:
                    on_call(idx + 1)
                if not known:
                    t = fetch_cycle + front
                    if t > redirect_floor:
                        redirect_floor = t
            elif kind == _K_PF:
                on_sw_prefetch(inst, addr, issue)
                complete = issue + 1
            elif kind == _K_ALLOC:
                complete = issue + alloc_latency
            else:  # _K_HALT
                complete = dispatch

            # ---------------- register write-back ----------------
            if wrkind:
                reg_ready[rd] = complete
                if track_dataflow:
                    if wrkind == _WR_ADDI:
                        src_pc[rd] = src_pc[rs1]
                        src_val[rd] = src_val[rs1]
                    elif wrkind == _WR_ADD:
                        if src_pc[rs1] is not None:
                            src_pc[rd] = src_pc[rs1]
                            src_val[rd] = src_val[rs1]
                        else:
                            src_pc[rd] = src_pc[rs2]
                            src_val[rd] = src_val[rs2]
                    else:
                        src_pc[rd] = None
                        src_val[rd] = None

            # ---------------- commit (in order, width-limited) ----------------
            # ``last_commit`` is also the cycle of the current commit group.
            prev_commit = last_commit
            if complete > last_commit:
                last_commit = complete
                commit_count = 1
            else:
                commit_count += 1
                if commit_count > commit_width:
                    last_commit += 1
                    commit_count = 1
            rob_append(last_commit)
            if profiling:
                delta = last_commit - prev_commit
                if delta:
                    # Charge the commit-front advance to the latest
                    # pipeline stage that lifted it (see obs.profile).
                    if complete <= prev_commit:
                        reason = "base"  # commit width, not this inst
                    elif kind == _K_LW:
                        reason = load_reason
                    elif frees is not None and issue > dep_ready:
                        reason = "fu"
                    elif dispatch > fetch_cycle + front:
                        reason = "window"
                    elif redirected_at == n_committed:
                        reason = "branch"
                    else:
                        reason = "base"
                    prof_charge(idx, reason, delta, last_commit)

            # ---------------- post-commit effects ----------------
            if is_mem:
                lsq_append(last_commit)
                if kind == _K_SW:
                    timing_words[addr] = value
                    pending_stores[addr] = (complete, last_commit)
                    if len(pending_stores) > 8192:
                        pending_stores = {
                            a: v for a, v in pending_stores.items()
                            if v[1] > last_commit
                        }
                        ps_get = pending_stores.get
                    data_access(addr, last_commit, True)
                elif kind == _K_LW and track_dataflow:
                    # The engine reacts when the value arrives (completion);
                    # DBP launches chained prefetches off completed loads.
                    on_load_commit(
                        inst, addr, value, complete, src_pc[rs1], src_val[rs1]
                    )
                    src_pc[rd] = idx
                    src_val[rd] = value

            n_committed += 1
            if n_committed == next_check:
                if (
                    not n_committed % _ISSUED_AT_PRUNE_INTERVAL
                    and len(issued_at) > _ISSUED_AT_PRUNE_THRESHOLD
                ):
                    floor = dispatch - 4 * window
                    issued_at = {
                        c: k for c, k in issued_at.items() if c >= floor
                    }
                    issued_get = issued_at.get
                if audit_every and not n_committed % audit_every:
                    # In flight alongside the instruction just committed:
                    # the ring entries that commit after it dispatched.
                    auditor.on_commit(
                        n_committed,
                        last_commit,
                        rob=[t for t in rob if t > dispatch],
                        lsq=[t for t in lsq if t > dispatch],
                        issued_at=issued_at,
                    )
                next_check = _next_periodic(n_committed, audit_every)

        # ------------------------------------------------------------------
        cycles = last_commit
        h = hierarchy
        tele_dict = None
        if self.telemetry is not None:
            self.telemetry.finalize()
        if profiling:
            profiler.on_finish(self, n_committed, last_commit)
        # After finalize: the end-of-run sweep sees the tracker (and the
        # profiler) in terminal state, and violation counters land in the
        # artifact dict.
        if auditor is not None:
            auditor.on_finish(self, n_committed, last_commit)
        if self.telemetry is not None:
            tele_dict = self.telemetry.to_dict()
        return SimResult(
            cycles=cycles,
            instructions=n_committed,
            loads=n_loads,
            stores=n_stores,
            lds_loads=n_lds_loads,
            branch=bpred.stats,
            hierarchy=h.stats,
            engine=engine.stats,
            l1d_accesses=h.dl1.stats.accesses,
            l1d_misses=h.dl1.stats.misses,
            l2_accesses=h.l2.stats.accesses,
            l2_misses=h.l2.stats.misses,
            dtlb_misses=h.dtlb.stats.misses,
            engine_name=engine.name,
            telemetry=tele_dict,
            profile=profiler.to_dict() if profiling else None,
        )
