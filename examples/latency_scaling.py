#!/usr/bin/env python3
"""Figure 7 in miniature: what happens as memory gets (relatively) slower.

The paper's Section 4.4 argument: scheduling-based prefetching (DBP)
"compresses but cannot flatten the memory dependence graph" — as the
processor/memory gap grows, its benefit evaporates, while jump-pointer
prefetching keeps generating addresses early enough.  This example sweeps
main-memory latency on `health` and prints each scheme's memory-stall
reduction at every point.

Run:  python examples/latency_scaling.py
"""

from repro.harness import Axis, ExperimentSpec, WorkloadSel, format_table, run_spec


def main() -> None:
    spec = ExperimentSpec(
        name="latency-scaling",
        machine="bench",
        workloads=(WorkloadSel("health"),),
        schemes=("base", "software", "hardware", "dbp"),
        axes=(Axis("latency", (35, 70, 140, 280), ("machine.memory_latency",)),),
        columns=("latency", "scheme", "total", "mem_reduction%"),
    )
    rows = []
    for r in run_spec(spec):  # latency-major, base first at each latency
        if r["scheme"] == "base":
            rows.append({"mem latency": r["latency"], "base cycles": r["total"]})
        else:
            rows[-1][f"{r['scheme']} stall cut%"] = r["mem_reduction%"]

    print(format_table(rows, "health: memory-stall reduction vs memory latency"))
    print()
    dbp_cuts = [r["dbp stall cut%"] for r in rows]
    sw_cuts = [r["software stall cut%"] for r in rows]
    print(f"DBP's stall reduction goes {dbp_cuts[0]}% -> {dbp_cuts[-1]}% as "
          f"latency grows 8x;")
    print(f"software JPP's goes {sw_cuts[0]}% -> {sw_cuts[-1]}% — jump-pointers")
    print("keep breaking the serial address-generation chain (Section 4.4).")


if __name__ == "__main__":
    main()
