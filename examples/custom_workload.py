#!/usr/bin/env python3
"""Extending the framework: apply queue jumping to your own kernel.

This example writes a new pointer-chasing kernel from scratch against the
public API — a skip-list-style search over a sorted linked list — and
instruments it with the software jump-queue (the paper's queue method),
then measures baseline vs software JPP vs hardware JPP.

It shows everything a new workload needs:
  1. lay out nodes so the size-class allocator leaves padding (for the
     hardware variant) or an explicit jump-pointer field (software);
  2. install jump-pointers with `SoftwareJumpQueue` during creation;
  3. prefetch through the jump-pointer at each visit with
     `emit_jump_prefetch` (software: a load+PF pair);
  4. annotate LDS loads with `pad=` so hardware JPP can find its storage.

Run:  python examples/custom_workload.py
"""

from repro import Assembler, bench_config, run_to_completion, simulate_decomposed
from repro.core import SoftwareJumpQueue, emit_jump_prefetch
from repro.isa.registers import A0, T0, T1, T2, T3, T4, T5, ZERO

N = 1024          # list nodes
SEARCHES = 40     # membership queries per run
INTERVAL = 8

OFF_KEY = 0
OFF_NEXT = 4
OFF_JP = 8        # software jump-pointer field (in the padding)


def build(software_jpp: bool):
    a = Assembler()
    found = a.word(0)
    head = a.word(0)
    queue = SoftwareJumpQueue(a, INTERVAL, "sq") if software_jpp else None

    # ---- build a sorted list (descending creation => ascending keys) ---
    a.label("main")
    a.li(T0, N)
    a.label("build")
    a.beqz(T0, "search_all")
    a.alloc(T1, ZERO, 12)          # {key, next} in the 16-byte class
    a.slli(T2, T0, 3)              # key = 8 * index
    a.sw(T2, T1, OFF_KEY)
    a.li(A0, head)
    a.lw(T2, A0, 0)
    a.sw(T2, T1, OFF_NEXT)
    a.sw(T1, A0, 0)
    if queue is not None:
        # creation order is the reverse of search order: install backward
        queue.update(T1, OFF_JP, T2, T3, T4, reverse=True)
    a.addi(T0, T0, -1)
    a.j("build")

    # ---- run SEARCHES membership queries -------------------------------
    a.label("search_all")
    a.li(T5, SEARCHES)
    a.li(T0, 0)                    # hits
    a.label("next_query")
    a.beqz(T5, "end")
    # query key: spread over the key space; odd queries miss (key-3)
    a.li(T1, 8 * (N // SEARCHES))
    a.mul(T1, T1, T5)
    a.andi(T2, T5, 1)
    a.beqz(T2, "present")
    a.addi(T1, T1, -3)             # absent key (not a multiple of 8)
    a.label("present")
    a.li(A0, head)
    a.lw(T2, A0, 0, tag="lds")
    a.label("walk")
    a.beqz(T2, "miss")
    emit_jump_prefetch(a, "sw" if software_jpp else "baseline",
                       T2, OFF_JP, T4)
    a.lw(T3, T2, OFF_KEY, pad=16, tag="lds")
    a.bge(T3, T1, "check")
    a.lw(T2, T2, OFF_NEXT, pad=16, tag="lds")
    a.j("walk")
    a.label("check")
    a.bne(T3, T1, "miss")
    a.addi(T0, T0, 1)
    a.label("miss")
    a.addi(T5, T5, -1)
    a.j("next_query")
    a.label("end")
    a.li(A0, found)
    a.sw(T0, A0, 0)
    a.halt()
    return a.assemble("skipsearch"), found


def main() -> None:
    cfg = bench_config()
    base_prog, found_addr = build(software_jpp=False)
    sw_prog, __ = build(software_jpp=True)

    # functional sanity first
    interp = run_to_completion(base_prog)
    print(f"queries found {interp.memory.load(found_addr)} of {SEARCHES} keys")

    rows = []
    for name, prog, engine in (
        ("baseline", base_prog, "none"),
        ("software JPP", sw_prog, "software"),
        ("hardware JPP", base_prog, "hardware"),
    ):
        real, dec = simulate_decomposed(prog, cfg, engine=engine)
        rows.append((name, dec.total, dec.compute, dec.memory))

    base_total = rows[0][1]
    print(f"\n{'scheme':14s} {'cycles':>9s} {'compute':>9s} {'memory':>9s} {'vs base':>8s}")
    for name, total, compute, memory in rows:
        print(f"{name:14s} {total:9d} {compute:9d} {memory:9d} {total/base_total:7.2f}x")
    print("\nEvery search rescans the list from the head, so the structure is")
    print("traversed many times: hardware JPP installs jump-pointers during")
    print("the first searches and prefetches the rest — no code changes.")


if __name__ == "__main__":
    main()
