"""Checkpoint-resume drill: kill a sweep mid-flight, finish it with --resume.

Run directly (also wired into CI)::

    python benchmarks/resume_drill.py           # test-size drill, serial
    python benchmarks/resume_drill.py --jobs 2  # drill the pooled path too

The drill:

1. Runs a clean figure-5 sweep over two benchmarks to get reference rows.
2. Reruns it with a checkpoint journal and a progress hook that raises
   ``KeyboardInterrupt`` once roughly half the cells have finished —
   simulating an operator hitting Ctrl-C (or the box dying) mid-sweep.
3. Resumes from the journal with a fresh executor and asserts, via the
   obs metric registry, that every checkpointed cell was **replayed**
   (zero re-simulation) and only the unfinished remainder was executed.
4. Asserts the resumed sweep's assembled rows are bit-identical to the
   clean reference.

Exit status 0 means the checkpoint-resume contract holds.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import small_config                              # noqa: E402
from repro.harness import SweepExecutor, SweepJournal, figure5  # noqa: E402
from repro.obs import MetricRegistry                        # noqa: E402
from repro.workloads import workload_class                  # noqa: E402

BENCHMARKS = ("treeadd", "power")
#: 2 benchmarks x (5 timing + 3 distinct compute) cells.
TOTAL_CELLS = 16


class InterruptMidway:
    """Progress hook that raises KeyboardInterrupt after ``n`` cells."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.seen = 0

    def __call__(self, line: str) -> None:
        self.seen += 1
        if self.seen >= self.n:
            raise KeyboardInterrupt


def drill(jobs: int, kill_after: int, verbose: bool) -> None:
    cfg = small_config()
    params = {name: workload_class(name).test_params() for name in BENCHMARKS}
    say = print if verbose else (lambda *a, **k: None)

    say(f"reference sweep ({len(BENCHMARKS)} benchmarks, jobs={jobs}) ...")
    reference = figure5(cfg, benchmarks=BENCHMARKS, params=params,
                        executor=SweepExecutor(jobs=jobs))

    with tempfile.TemporaryDirectory() as tmp:
        journal_path = Path(tmp) / "drill.jsonl"

        say(f"interrupted sweep: Ctrl-C after {kill_after} cells ...")
        registry = MetricRegistry()
        journal = SweepJournal(journal_path, registry=registry)
        executor = SweepExecutor(jobs=jobs, journal=journal,
                                 registry=registry,
                                 progress=InterruptMidway(kill_after))
        try:
            figure5(cfg, benchmarks=BENCHMARKS, params=params,
                    executor=executor)
        except KeyboardInterrupt:
            pass
        else:
            raise SystemExit("drill broken: the interrupt never fired")
        finally:
            journal.close()

        checkpointed = len(SweepJournal(journal_path, resume=True))
        say(f"journal holds {checkpointed} checkpointed cells")
        if not 0 < checkpointed < TOTAL_CELLS:
            raise SystemExit(
                f"drill needs a partial journal to prove anything, got "
                f"{checkpointed}/{TOTAL_CELLS} cells"
            )

        say("resuming from the journal ...")
        registry = MetricRegistry()
        journal = SweepJournal(journal_path, registry=registry, resume=True)
        executor = SweepExecutor(jobs=jobs, journal=journal,
                                 registry=registry)
        resumed = figure5(cfg, benchmarks=BENCHMARKS, params=params,
                          executor=executor)
        journal.close()

        jstats, xstats = journal.stats(), executor.stats()
        say(f"  {journal.describe()}")
        say(f"  {executor.describe()}")
        assert jstats["replayed"] == checkpointed, (
            f"expected all {checkpointed} checkpointed cells replayed, "
            f"got {jstats['replayed']}"
        )
        assert xstats["executed"] == TOTAL_CELLS - checkpointed, (
            f"resume recomputed checkpointed work: executed "
            f"{xstats['executed']}, wanted {TOTAL_CELLS - checkpointed}"
        )
        assert xstats["failures"] == 0 and xstats["retries"] == 0

        assert resumed == reference, (
            "resumed sweep rows diverged from the clean reference"
        )

    print(
        f"resume drill OK (jobs={jobs}): {checkpointed} cells replayed "
        f"from the journal, {TOTAL_CELLS - checkpointed} re-simulated, "
        f"rows bit-identical to the clean run"
    )


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--jobs", type=int, default=1,
                    help="worker processes for every sweep (default 1)")
    ap.add_argument("--kill-after", type=int, default=TOTAL_CELLS // 2,
                    help="cells to finish before the simulated Ctrl-C "
                         f"(default {TOTAL_CELLS // 2})")
    ap.add_argument("-q", "--quiet", action="store_true",
                    help="only print the final verdict")
    args = ap.parse_args(argv)
    drill(args.jobs, args.kill_after, verbose=not args.quiet)


if __name__ == "__main__":
    main()
