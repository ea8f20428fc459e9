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

from ..config import MachineConfig
from ..isa.engines import resolve_sim_engine
from ..isa.instruction import Instruction
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
    periodic maintenance hook fire before the first commit; every
    every-N-commits check (the ``issued_at`` prune, the audit cadence)
    goes through this predicate or an inline copy of it.
    """
    return bool(n_committed) and n_committed % interval == 0


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
        collect_miss_intervals: bool = False,
        max_steps: int | None = None,
        attribute_stalls: bool = False,
        telemetry=None,
        audit=None,
        interpreter_factory=None,
        profile=None,
        sim_engine: str | None = None,
    ) -> None:
        self.attribute_stalls = attribute_stalls
        self.auditor = audit
        if profile is None and attribute_stalls:
            from ..obs.profile import Profiler

            profile = Profiler()
        self.profiler = profile
        # Simulation-engine dispatch: ``table``/``reference`` (or
        # $REPRO_SIM_ENGINE when unset) pick the functional interpreter;
        # results are bit-identical either way.  An explicit
        # ``interpreter_factory`` wins over the engine.
        se = resolve_sim_engine(sim_engine)
        self.sim_engine = se.name
        self._interpreter_factory = (
            interpreter_factory or se.factory() or Interpreter
        )
        self.program = program
        self.cfg = cfg
        self.telemetry = telemetry
        self.engine = engine or PrefetchEngine()
        self.hierarchy = MemoryHierarchy(
            cfg,
            use_prefetch_buffer=self.engine.uses_prefetch_buffer,
            collect_miss_intervals=collect_miss_intervals,
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

    # Execute-stage categories (meta field ``excat``).
    _EX_LW, _EX_SW, _EX_PF, _EX_ALLOC, _EX_HALT, _EX_OTHER = range(6)
    # Control-resolution kinds (meta field ``ctl``).
    _CTL_NONE, _CTL_J, _CTL_JAL, _CTL_JR, _CTL_COND = range(5)
    # Register-write kinds (meta field ``wrkind``).
    _WR_NONE, _WR_PLAIN, _WR_ADDI, _WR_ADD = range(4)

    def _instruction_meta(
        self, fu_free: dict, fu_latency: dict, iline_mask: int
    ) -> list[tuple]:
        """Per-static-instruction tuples precomputing everything the hot
        loop would otherwise re-derive per dynamic instruction: the I-cache
        line, FU binding, execute/control/write dispatch categories, and
        the operand fields.  Indexed by ``inst.index``."""
        text_base = 0x0040_0000
        unpipelined = (FuClass.INT_DIV, FuClass.FP_DIV)
        no_rs2 = (Op.ADDI, Op.LW, Op.PF, Op.JPF, Op.SW)
        insts = self.program.instructions
        meta: list[tuple] = [()] * len(insts)
        for si in insts:
            op = si.op
            fu = FU_CLASS[op]
            frees = fu_free[fu] if fu is not FuClass.NONE else None
            lat = fu_latency.get(fu, 1)
            fu_occ = lat if fu in unpipelined else 1
            cdelta = lat if frees is not None else 1
            is_mem = op is Op.LW or op is Op.SW or op is Op.PF or op is Op.JPF
            needs_rs2 = op not in no_rs2
            if op is Op.LW:
                excat = self._EX_LW
            elif op is Op.SW:
                excat = self._EX_SW
            elif op is Op.PF or op is Op.JPF:
                excat = self._EX_PF
            elif op is Op.ALLOC:
                excat = self._EX_ALLOC
            elif op is Op.HALT:
                excat = self._EX_HALT
            else:
                excat = self._EX_OTHER
            if op is Op.JR:
                ctl = self._CTL_JR
            elif si.target is None:
                ctl = self._CTL_NONE
            elif op is Op.J:
                ctl = self._CTL_J
            elif op is Op.JAL:
                ctl = self._CTL_JAL
            else:
                ctl = self._CTL_COND
            if op is Op.LW or op is Op.SW or op is Op.PF or op is Op.JPF:
                wrkind = self._WR_NONE  # handled by their own excat branches
            elif si.rd and fu is not FuClass.NONE:
                if op is Op.ADDI:
                    wrkind = self._WR_ADDI
                elif op is Op.ADD:
                    wrkind = self._WR_ADD
                else:
                    wrkind = self._WR_PLAIN
            else:
                wrkind = self._WR_NONE
            meta[si.index] = (
                (text_base + 4 * si.index) & iline_mask,  # 0: I-cache line
                is_mem,                                   # 1
                needs_rs2,                                # 2
                frees,                                    # 3: FU scoreboard
                fu_occ,                                   # 4: FU occupancy
                cdelta,                                   # 5: issue->complete
                excat,                                    # 6
                si.rs1,                                   # 7
                si.rs2,                                   # 8
                si.rd,                                    # 9
                ctl,                                      # 10
                si.target,                                # 11
                si.tag == "lds",                          # 12
                si.index,                                 # 13
                wrkind,                                   # 14
            )
        return meta

    def run(self) -> SimResult:
        cfg = self.cfg
        engine = self.engine
        hierarchy = self.hierarchy
        timing_mem_store = self.timing_mem.store
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

        # Register scoreboard and (optional) load provenance.
        reg_ready = [0] * NUM_REGS
        track_dataflow = engine.needs_dataflow
        src_pc: list[int | None] = [None] * NUM_REGS
        src_val: list[int | float | None] = [None] * NUM_REGS
        issue_hook = engine.needs_issue_hook

        # Window / LSQ occupancy (commit times of in-flight instructions).
        rob: deque[int] = deque()
        lsq: deque[int] = deque()
        rob_append, rob_popleft = rob.append, rob.popleft
        lsq_append, lsq_popleft = lsq.append, lsq.popleft
        window = cfg.window
        lsq_entries = cfg.lsq_entries

        # Fetch state.
        fetch_cycle = 0
        fetch_count = 0
        fetch_width = cfg.fetch_width
        redirect_floor = 0
        cur_line = -1
        line_ready = 0
        iline_mask = ~(cfg.il1.line - 1)
        front = cfg.front_pipeline_depth
        il1_latency = cfg.il1.latency
        inst_fetch = hierarchy.inst_fetch
        data_access = hierarchy.data_access

        # Issue bandwidth and functional units.
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
        commit_cycle = 0
        commit_count = 0
        commit_width = cfg.commit_width

        mispredict_penalty = cfg.branch_pred.misprediction_penalty
        alloc_latency = cfg.alloc_latency
        trace = self.telemetry.trace if self.telemetry is not None else None

        # Optional profiler: when detached the hot loop pays only the
        # ``profiling`` truth checks (same contract as telemetry/audit).
        profiler = self.profiler
        profiling = profiler is not None
        if profiling:
            profiler.attach(self)
            prof_charge = profiler.charge
            prof_on_load = profiler.on_load
            prof_on_forward = profiler.on_forward
        load_reason = "load.l1"
        dep_ready = 0

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

        _EX_LW, _EX_SW, _EX_PF = self._EX_LW, self._EX_SW, self._EX_PF
        _EX_ALLOC, _EX_HALT = self._EX_ALLOC, self._EX_HALT
        _CTL_J, _CTL_JAL, _CTL_JR, _CTL_COND = (
            self._CTL_J, self._CTL_JAL, self._CTL_JR, self._CTL_COND
        )
        _WR_NONE, _WR_ADDI, _WR_ADD = self._WR_NONE, self._WR_ADDI, self._WR_ADD

        for inst, addr, value, taken in interp.run():
            (line, is_mem, needs_rs2, frees, fu_occ, cdelta, excat,
             rs1, rs2, rd, ctl, target, is_lds, idx,
             wrkind) = meta[inst.index]

            # ---------------- fetch ----------------
            t = fetch_cycle
            redirected = redirect_floor > t
            if redirected:
                t = redirect_floor
            if line != cur_line:
                cur_line = line
                line_ready = inst_fetch(line, t) - il1_latency
            if line_ready > t:
                t = line_ready
            if t > fetch_cycle:
                fetch_cycle = t
                fetch_count = 1
            else:
                fetch_count += 1
                if fetch_count > fetch_width:
                    fetch_cycle += 1
                    fetch_count = 1
                    t = fetch_cycle
                    if line_ready > t:  # pragma: no cover - defensive
                        t = line_ready

            fetch_time = t

            # ---------------- dispatch ----------------
            dispatch = fetch_time + front
            if len(rob) >= window:
                head = rob_popleft()
                if head > dispatch:
                    dispatch = head
            if is_mem and len(lsq) >= lsq_entries:
                head = lsq_popleft()
                if head > dispatch:
                    dispatch = head

            # ---------------- operand readiness ----------------
            ready = dispatch + _DISPATCH_EXTRA
            r = reg_ready[rs1]
            if r > ready:
                ready = r
            if needs_rs2:
                r = reg_ready[rs2]
                if r > ready:
                    ready = r
            # A store's address generation does not wait for its data; the
            # data register is folded in at completion below.
            if profiling:
                dep_ready = ready  # operand readiness before FU/width waits

            # ---------------- issue (width + FU) ----------------
            if frees is not None:
                best = 0
                best_t = frees[0]
                for k in range(1, len(frees)):
                    if frees[k] < best_t:
                        best_t = frees[k]
                        best = k
                if best_t > ready:
                    ready = best_t
                cnt = issued_get(ready, 0)
                while cnt >= issue_width:
                    ready += 1
                    cnt = issued_get(ready, 0)
                issued_at[ready] = cnt + 1
                frees[best] = ready + fu_occ
            issue = ready

            # ---------------- execute ----------------
            if excat == _EX_LW:
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
                    complete = max(start, fwd[0]) + 1
                    if profiling:
                        load_reason = prof_on_forward(idx, complete - start)
                else:
                    complete = data_access(addr, start, write=False, lds=is_lds)
                    if profiling:
                        load_reason = prof_on_load(idx, complete - start)
            elif excat == _EX_SW:
                n_stores += 1
                # Address is known at issue (AGU); later loads wait only for
                # the address, not the data.
                if issue > store_addr_floor:
                    store_addr_floor = issue
                data_ready = reg_ready[rs2]
                complete = (data_ready if data_ready > issue else issue) + 1
            elif excat == _EX_PF:
                on_sw_prefetch(inst, addr, issue)
                complete = issue + 1
            elif excat == _EX_ALLOC:
                complete = issue + alloc_latency
            elif excat == _EX_HALT:
                complete = dispatch
            else:
                complete = issue + cdelta

            # ---------------- control resolution ----------------
            if ctl:
                if ctl == _CTL_COND:
                    dir_ok, tgt_ok = predict_cond(idx, taken, target)
                    if not dir_ok:
                        rf = complete + mispredict_penalty
                        if rf > redirect_floor:
                            redirect_floor = rf
                    elif taken and not tgt_ok:
                        df = fetch_time + front
                        if df > redirect_floor:
                            redirect_floor = df
                elif ctl == _CTL_J:
                    if not predict_jump(idx, target):
                        df = fetch_time + front
                        if df > redirect_floor:
                            redirect_floor = df
                elif ctl == _CTL_JAL:
                    known = predict_jump(idx, target)
                    on_call(idx + 1)
                    if not known:
                        df = fetch_time + front
                        if df > redirect_floor:
                            redirect_floor = df
                else:  # _CTL_JR
                    if not predict_return(value):
                        rf = complete + mispredict_penalty
                        if rf > redirect_floor:
                            redirect_floor = rf

            # ---------------- commit (in order, width-limited) ----------------
            prev_commit = last_commit
            ct = complete if complete > last_commit else last_commit
            if ct > commit_cycle:
                commit_cycle = ct
                commit_count = 1
            else:
                commit_count += 1
                if commit_count > commit_width:
                    commit_cycle += 1
                    commit_count = 1
                ct = commit_cycle
            last_commit = ct
            rob_append(ct)
            if is_mem:
                lsq_append(ct)
            if profiling:
                delta = ct - prev_commit
                if delta:
                    # Charge the commit-front advance to the latest
                    # pipeline stage that lifted it (see obs.profile).
                    if complete <= prev_commit:
                        reason = "base"  # commit width, not this inst
                    elif excat == _EX_LW:
                        reason = load_reason
                    elif frees is not None and issue > dep_ready:
                        reason = "fu"
                    elif dispatch > fetch_time + front:
                        reason = "window"
                    elif redirected:
                        reason = "branch"
                    else:
                        reason = "base"
                    prof_charge(idx, reason, delta, ct)

            # ---------------- post-commit effects ----------------
            if excat == _EX_SW:
                timing_mem_store(addr, value)
                pending_stores[addr] = (complete, ct)
                if len(pending_stores) > 8192:
                    pending_stores = {
                        a: v for a, v in pending_stores.items() if v[1] > ct
                    }
                    ps_get = pending_stores.get
                data_access(addr, ct, write=True)
            elif excat == _EX_LW:
                if track_dataflow:
                    # The engine reacts when the value arrives (completion);
                    # DBP launches chained prefetches off completed loads.
                    on_load_commit(
                        inst, addr, value, complete, src_pc[rs1], src_val[rs1]
                    )
                    src_pc[rd] = idx
                    src_val[rd] = value
                reg_ready[rd] = complete
            elif wrkind != _WR_NONE:
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

            n_committed += 1
            # Inline periodic_due(): the n_committed guard keeps the prune
            # (and anything hung off this cadence) from firing at commit 0.
            if (
                n_committed
                and not n_committed % _ISSUED_AT_PRUNE_INTERVAL
                and len(issued_at) > _ISSUED_AT_PRUNE_THRESHOLD
            ):
                floor = dispatch - 4 * window
                issued_at = {c: k for c, k in issued_at.items() if c >= floor}
                issued_get = issued_at.get
            if audit_every and not n_committed % audit_every:
                auditor.on_commit(
                    n_committed,
                    last_commit,
                    rob=rob,
                    lsq=lsq,
                    issued_at=issued_at,
                )

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
