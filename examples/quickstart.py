#!/usr/bin/env python3
"""Quickstart: write a mini-ISA program, run it on the simulated machine,
and see what jump-pointer prefetching does to a pointer-chasing loop.

The program builds a 512-node linked list and walks it four times.  We
run it unoptimized, then under hardware jump-pointer prefetching and
dependence-based prefetching, and print the execution-time decomposition
the paper uses (compute time vs. memory stall time).

Run:  python examples/quickstart.py
"""

from repro import Assembler, bench_config, simulate, simulate_decomposed
from repro.isa.registers import A0, T0, T1, T2, ZERO


def build_program(n_nodes: int = 2048, walks: int = 4):
    """An n-node list ({value@0, next@4}, 12-byte allocations so the
    16-byte size class leaves a padding word for hardware jump-pointers),
    walked `walks` times."""
    a = Assembler()
    result = a.word(0)
    head = a.word(0)

    a.label("main")
    a.li(T0, n_nodes)
    a.label("build")
    a.beqz(T0, "walks")
    a.alloc(T1, ZERO, 12)          # {value, next} + padding word
    a.sw(T0, T1, 0)                # value = T0
    a.li(A0, head)
    a.lw(T2, A0, 0)
    a.sw(T2, T1, 4)                # next = old head
    a.sw(T1, A0, 0)                # head = node
    a.addi(T0, T0, -1)
    a.j("build")

    a.label("walks")
    for w in range(walks):
        a.li(T0, 0)
        a.li(A0, head)
        a.lw(T1, A0, 0, tag="lds")
        a.label(f"loop{w}")
        a.beqz(T1, f"done{w}")
        a.lw(T2, T1, 0, pad=16, tag="lds")   # value (annotated load)
        a.add(T0, T0, T2)
        a.lw(T1, T1, 4, pad=16, tag="lds")   # next  (the pointer chase)
        a.j(f"loop{w}")
        a.label(f"done{w}")
    a.li(A0, result)
    a.sw(T0, A0, 0)
    a.halt()
    return a.assemble("quickstart"), result, n_nodes * (n_nodes + 1) // 2


def main() -> None:
    program, result_addr, expected = build_program()
    cfg = bench_config()

    print(f"{'scheme':12s} {'cycles':>9s} {'compute':>9s} {'memory':>9s} "
          f"{'speedup':>8s}  prefetches(useful/issued)")
    base_total = None
    for engine in ("none", "dbp", "hardware"):
        real, dec = simulate_decomposed(program, cfg, engine=engine)
        if base_total is None:
            base_total = dec.total
        h = real.hierarchy
        # Each issued prefetch is used at most once: useful <= issued.
        print(
            f"{engine:12s} {dec.total:9d} {dec.compute:9d} {dec.memory:9d} "
            f"{base_total / dec.total:7.2f}x  {h.prefetches_useful}/{h.prefetches_issued}"
        )

    # functional sanity: the walk really computed the right sum
    from repro import run_to_completion

    interp = run_to_completion(program)
    got = interp.memory.load(result_addr)
    assert got == expected, f"sum {got} != {expected}"
    print(f"\nfunctional check OK: each walk sums to {expected}")
    print("note how hardware JPP spends the first walk learning/installing "
          "jump-pointers,\nthen prefetches the remaining walks "
          "(Section 4.2 of the paper).")


if __name__ == "__main__":
    main()
