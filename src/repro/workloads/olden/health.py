"""Olden ``health``: hierarchical health-care system simulation.

The paper's running example (Figure 2).  A four-level tree of hospitals
(branching factor 4); every hospital owns a *waiting list* — a linked list
of list nodes, each pointing at a patient record (a classic
"backbone-and-ribs" structure).  Every simulated iteration visits the
hospitals bottom-up and runs ``check_patients_waiting``: each waiting
patient's time is bumped and, pseudo-randomly (~1/32), the patient is
spliced out and moved up to the parent hospital (or discharged at the
root).  The lists are therefore *dynamic*, and the program makes *many*
traversals — the paper's sweet spot for chain jumping and for hardware JPP.

All four idioms are implemented (Figure 2 b-e):

* ``queue``  — jump-pointer to the list node *I* hops ahead only.
* ``full``   — jump-pointers to the future node *and* its patient record.
* ``chain``  — jump-pointer to the future node; the patient is prefetched
  through it (software pays the serialization artifact; cooperative leaves
  it to the dependence hardware).
* ``root``   — one jump-pointer per hospital to the *next* hospital's
  list root; the next list is chain-prefetched while the current one is
  processed (paper: health's lists are too long for this to win).

Layouts: list node ``patient@0, forward@4`` allocated at 12 bytes (16-byte
class; software jump-pointers live at +8/+12, the hardware slot is the
last word, +12).  Patient record ``time@0, seed@4`` (12 bytes).  Hospital
records are static: ``waiting@0, parent@4, next_in_visit_order@8``.
"""

from __future__ import annotations

from ...core.jump_queue import SoftwareJumpQueue, emit_jump_prefetch
from ...isa.assembler import Assembler
from ...isa.interpreter import Interpreter
from ...isa.registers import (
    A0,
    S0,
    S1,
    S2,
    S3,
    S4,
    S5,
    S6,
    S7,
    T0,
    T1,
    T2,
    T3,
    T4,
    T5,
    T6,
    T7,
    T8,
    ZERO,
)
from ..base import BuiltProgram, Workload, parse_variant
from ..registry import register
from .common import emit_lcg, lcg

NODE_CLASS = 16
PATIENT_CLASS = 32
OFF_PATIENT = 0
OFF_FORWARD = 4
OFF_JP = 8       # software jump-pointer (queue/chain/full)
OFF_JPP = 12     # full jumping: jump-pointer to the future patient
HOSP_STRIDE = 16
H_WAITING = 0
H_PARENT = 4
H_NEXT = 8

SEED0 = 0x2545F491
MASK32 = 0xFFFFFFFF
TREAT_MUL = 2654435761


def _num_hospitals(levels: int, branching: int) -> int:
    return sum(branching**k for k in range(levels))


def _treat(time: int, seed: int) -> int:
    """The per-patient "treatment" computation (Olden health updates
    several per-patient statistics; this stands in for that work).  Must
    stay in lock-step with the assembly emitted in ``_emit_treat``."""
    w = (time * TREAT_MUL) & MASK32
    w ^= w >> 13
    w = (w + seed) & MASK32
    w ^= (w << 7) & MASK32
    w = (w * TREAT_MUL) & MASK32
    w ^= w >> 11
    return w


def mirror(
    levels: int, branching: int, npat: int, iterations: int
) -> tuple[int, int, int]:
    """Python mirror of the kernel; returns (total_time, discharged, checksum)."""
    nh = _num_hospitals(levels, branching)
    hospitals: list[list[list[int]]] = [[] for __ in range(nh)]
    seed = SEED0
    for i in range(nh):
        for __ in range(npat):
            seed = lcg(seed)
            hospitals[i].insert(0, [0, seed])
    total_time = 0
    discharged = 0
    checksum = 0
    for __ in range(iterations):
        for i in range(nh - 1, -1, -1):
            lst = hospitals[i]
            k = 0
            while k < len(lst):
                p = lst[k]
                p[0] += 1
                total_time += 1
                p[1] = lcg(p[1])
                checksum = (checksum + _treat(p[0], p[1])) & MASK32
                if (p[1] >> 16) & 31 == 0:
                    lst.pop(k)
                    if i:
                        hospitals[(i - 1) // branching].insert(0, p)
                    else:
                        discharged += 1
                else:
                    k += 1
    return total_time, discharged, checksum


@register
class Health(Workload):
    name = "health"
    structure = "hospital tree; dynamic waiting lists with patient ribs, many traversals"
    idioms = ("chain", "root", "full", "queue")
    variants = (
        "baseline",
        "sw:chain",
        "sw:full",
        "sw:queue",
        "sw:root",
        "coop:chain",
        "coop:full",
        "coop:queue",
        "coop:root",
    )
    expectation = (
        "chain jumping wins (lists too long for root jumping); hardware "
        "JPP excels because the program makes many traversals"
    )

    @classmethod
    def default_params(cls) -> dict:
        return {
            "levels": 4,
            "branching": 4,
            "npat": 8,
            "iterations": 12,
            "interval": 8,
        }

    @classmethod
    def test_params(cls) -> dict:
        return {"levels": 3, "branching": 3, "npat": 3, "iterations": 3, "interval": 4}

    def build_variant(self, variant: str) -> BuiltProgram:
        impl, idiom = parse_variant(variant)
        levels: int = self.params["levels"]
        branching: int = self.params["branching"]
        npat: int = self.params["npat"]
        iterations: int = self.params["iterations"]
        interval: int = self.params["interval"]
        nh = _num_hospitals(levels, branching)
        node_bytes = 16 if idiom == "full" else 12

        a = Assembler()
        res_time = a.word(0)
        res_disch = a.word(0)
        res_chk = a.word(0)
        hbase = a.space(4 * nh)
        for i in range(nh):
            base = hbase + HOSP_STRIDE * i
            if i:
                a.poke(base + H_PARENT, hbase + HOSP_STRIDE * ((i - 1) // branching))
                a.poke(base + H_NEXT, hbase + HOSP_STRIDE * (i - 1))

        use_queue = idiom in ("queue", "full", "chain")
        queue = (
            SoftwareJumpQueue(a, interval, "hjq") if impl != "baseline" and use_queue
            else None
        )

        # ---------------- build phase ----------------
        a.label("main")
        a.li(S7, SEED0)
        a.li(S0, 0)  # hospital index
        a.label("b_hosp")
        a.li(T0, nh)
        a.bge(S0, T0, "sim_start")
        a.slli(S2, S0, 4)
        a.addi(S2, S2, hbase)  # &hospital[i]
        a.li(S1, npat)
        a.label("b_pat")
        a.beqz(S1, "b_next_hosp")
        # Patient records are 20 bytes (time, seed, id, history...) -> the
        # 32-byte class, a *different* region than the 16-byte list nodes,
        # so backbone and rib lines are distinct (as with real records).
        a.alloc(T0, ZERO, 20)  # patient record
        emit_lcg(a, S7, T1)
        a.sw(S7, T0, 4)        # patient->seed
        a.sw(ZERO, T0, 0)      # patient->time = 0
        a.alloc(T1, ZERO, node_bytes)  # list node
        a.sw(T0, T1, OFF_PATIENT)
        a.lw(T2, S2, H_WAITING)
        a.sw(T2, T1, OFF_FORWARD)      # node->forward = head
        a.sw(T1, S2, H_WAITING)        # head = node
        a.addi(S1, S1, -1)
        a.j("b_pat")
        a.label("b_next_hosp")
        a.addi(S0, S0, 1)
        a.j("b_hosp")

        # ---------------- simulation ----------------
        a.label("sim_start")
        a.li(S3, 0)  # total time increments
        a.li(S4, 0)  # discharged
        a.li(T8, 0)  # treatment checksum
        a.li(S1, iterations)
        a.label("iter_loop")
        a.beqz(S1, "end")
        a.li(S0, nh - 1)
        a.label("hosp_loop")
        a.slli(S2, S0, 4)
        a.addi(S2, S2, hbase)  # &hospital[i]
        if impl != "baseline":
            # Prefetch the next hospital record (static stride); its head
            # pointer would otherwise serialize entry into the next list.
            a.pf(S2, -HOSP_STRIDE)

        # Root jumping: prefetch the next hospital's list while this one
        # is processed (Figure 2e).
        if idiom == "root":
            skip_rj = a.newlabel("rj_pre")
            a.lw(T5, S2, H_NEXT)
            a.li(S5, 0)
            a.beqz(T5, skip_rj)
            # software: j = next->waiting, the root of the next list
            emit_jump_prefetch(a, impl, T5, H_WAITING, S5)
            a.label(skip_rj)
            # NOTE: S5 is the root-jumping cursor here, so the splice slot
            # is tracked in T7 (reloaded per step) instead.
            prev_reg = T7
        else:
            prev_reg = S5

        a.mov(prev_reg, S2)  # prev slot = &hospital.waiting
        a.lw(S6, S2, H_WAITING, tag="lds")
        a.label("node_loop")
        a.beqz(S6, "hosp_done")

        # -- idiom-specific prefetching at the top of the loop body --
        patient_in_t0 = False
        if impl != "baseline":
            if idiom == "queue":
                emit_jump_prefetch(a, impl, S6, OFF_JP, T5)
                queue.update(S6, OFF_JP, T4, T5, T6)
            elif idiom == "full":
                emit_jump_prefetch(a, impl, S6, OFF_JP, T5)
                emit_jump_prefetch(a, impl, S6, OFF_JPP, T5)
                a.lw(T0, S6, OFF_PATIENT, pad=NODE_CLASS, tag="lds")
                patient_in_t0 = True
                queue.update(S6, OFF_JP, T4, T5, T6, extra=[(OFF_JPP, T0)])
            elif idiom == "chain":
                if impl == "sw":
                    skip_cj = a.newlabel("cj")
                    a.lw(T5, S6, OFF_JP, tag="lds")
                    a.beqz(T5, skip_cj)
                    a.pf(T5, 0)
                    # Chained prefetch: a real load of the future node's
                    # patient pointer (the serialization artifact), then a
                    # dependent non-binding prefetch.
                    a.lw(T6, T5, OFF_PATIENT, tag="lds")
                    a.pf(T6, 0)
                    a.label(skip_cj)
                else:
                    a.jpf(S6, OFF_JP)
                queue.update(S6, OFF_JP, T4, T5, T6)
            elif idiom == "root" and impl == "sw":
                skip_rn = a.newlabel("rj_node")
                a.beqz(S5, skip_rn)
                a.lw(T5, S5, OFF_PATIENT, tag="lds")  # artifact load
                a.pf(T5, 0)
                a.lw(T6, S5, OFF_FORWARD, tag="lds")  # artifact load
                a.pf(T6, 0)
                a.mov(S5, T6)  # advance the cursor down the next list
                a.label(skip_rn)

        # -- check one patient --
        if not patient_in_t0:
            a.lw(T0, S6, OFF_PATIENT, pad=NODE_CLASS, tag="lds")
        a.lw(T1, T0, 0, pad=PATIENT_CLASS, tag="lds")  # patient->time
        a.addi(T1, T1, 1)
        a.sw(T1, T0, 0)
        a.addi(S3, S3, 1)
        a.lw(T2, T0, 4)  # patient->seed
        emit_lcg(a, T2, T3)
        a.sw(T2, T0, 4)
        # Treatment computation (kept in lock-step with _treat above).
        a.li(T4, TREAT_MUL)
        a.mul(T3, T1, T4)
        a.andi(T3, T3, MASK32)
        a.srli(T4, T3, 13)
        a.xor(T3, T3, T4)
        a.add(T3, T3, T2)
        a.andi(T3, T3, MASK32)
        a.slli(T4, T3, 7)
        a.andi(T4, T4, MASK32)
        a.xor(T3, T3, T4)
        a.li(T4, TREAT_MUL)
        a.mul(T3, T3, T4)
        a.andi(T3, T3, MASK32)
        a.srli(T4, T3, 11)
        a.xor(T3, T3, T4)
        a.add(T8, T8, T3)
        a.andi(T8, T8, MASK32)
        a.srli(T3, T2, 16)
        a.andi(T3, T3, 31)
        a.bnez(T3, "stay")
        # splice out
        a.lw(T4, S6, OFF_FORWARD, pad=NODE_CLASS, tag="lds")
        a.sw(T4, prev_reg, 0)
        a.beqz(S0, "discharge")
        a.lw(T5, S2, H_PARENT)     # move to parent hospital
        a.lw(T6, T5, H_WAITING, tag="lds")
        a.sw(T6, S6, OFF_FORWARD)
        a.sw(S6, T5, H_WAITING)
        a.mov(S6, T4)
        a.j("node_loop")
        a.label("discharge")
        a.addi(S4, S4, 1)
        a.mov(S6, T4)
        a.j("node_loop")
        a.label("stay")
        a.addi(prev_reg, S6, OFF_FORWARD)
        a.lw(S6, S6, OFF_FORWARD, pad=NODE_CLASS, tag="lds")
        a.j("node_loop")

        a.label("hosp_done")
        a.addi(S0, S0, -1)
        a.bge(S0, ZERO, "hosp_loop")
        a.addi(S1, S1, -1)
        a.j("iter_loop")

        a.label("end")
        a.li(A0, res_time)
        a.sw(S3, A0, 0)
        a.li(A0, res_disch)
        a.sw(S4, A0, 0)
        a.li(A0, res_chk)
        a.sw(T8, A0, 0)
        a.halt()

        program = a.assemble(f"health[{variant}]")
        exp_time, exp_disch, exp_chk = mirror(levels, branching, npat, iterations)

        def check(interp: Interpreter) -> None:
            got_t = interp.memory.load(res_time)
            got_d = interp.memory.load(res_disch)
            got_c = interp.memory.load(res_chk)
            assert got_t == exp_time, f"health: time {got_t} != {exp_time}"
            assert got_d == exp_disch, f"health: discharged {got_d} != {exp_disch}"
            assert got_c == exp_chk, f"health: checksum {got_c:#x} != {exp_chk:#x}"

        return BuiltProgram(
            program=program,
            expected={
                "total_time": exp_time,
                "discharged": exp_disch,
                "checksum": exp_chk,
            },
            check=check,
        )
