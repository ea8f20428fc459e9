#!/usr/bin/env python3
"""The paper's running example: `health` and the four prefetching idioms.

Section 2 of the paper develops jump-pointer prefetching around the
`check_patients_waiting` loop of Olden health (Figure 2): a hospital's
waiting list is a backbone of list nodes whose ribs are patient records.
This example reproduces the idiom comparison on that program:

* queue jumping  — jump-pointers to the list node I hops ahead only;
* full jumping   — jump-pointers to the future node AND its patient;
* chain jumping  — jump-pointer to the node, patient chained through it;
* root jumping   — one pointer to the next hospital's list root.

Run:  python examples/health_case_study.py
"""

from repro import bench_config
from repro.harness import BenchmarkRunner, format_table, normalized_bar


def main() -> None:
    cfg = bench_config()
    runner = BenchmarkRunner("health", cfg)
    base = runner.run("base")

    rows = [{
        "config": "unoptimized",
        "normalized": 1.0,
        "compute": base.compute,
        "memory": base.memory,
        "bar": normalized_bar(1.0),
    }]
    for impl, scheme in (("sw", "software"), ("coop", "cooperative")):
        for idiom in ("queue", "full", "chain", "root"):
            run = runner.run(scheme, idiom)
            n = run.normalized(base.total)
            rows.append({
                "config": f"{impl}:{idiom}",
                "normalized": round(n, 3),
                "compute": run.compute,
                "memory": run.memory,
                "bar": normalized_bar(n),
            })
    for scheme in ("hardware", "dbp"):
        run = runner.run(scheme)
        n = run.normalized(base.total)
        rows.append({
            "config": scheme,
            "normalized": round(n, 3),
            "compute": run.compute,
            "memory": run.memory,
            "bar": normalized_bar(n),
        })

    print(format_table(rows, "health: idioms and implementations "
                             "(normalized execution time; # = time)"))
    print()
    print("What to look for (paper Sections 2.2 and 4.1):")
    print(" * queue jumping prefetches only the backbone; the patient-record")
    print("   ribs still miss, so it barely helps.")
    print(" * full and chain jumping cover the ribs too and win big; chain")
    print("   gets there with half the jump-pointer storage.")
    print(" * the lists are too long for root jumping to keep up.")
    print(" * the cooperative versions shed the software chained-prefetch")
    print("   serialization; hardware JPP needs no code changes at all.")


if __name__ == "__main__":
    main()
