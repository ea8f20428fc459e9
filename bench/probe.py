"""Set-up probe: time ``import repro`` + ``load_spec`` + ``compile_spec``.

Run as ``python3 bench/probe.py WORKLOAD SEED`` in a fresh interpreter;
prints the seconds from before the first import until the workload's
spec is compiled into sweep cells.  ``run.py`` takes the median of
several probes as ``setup_s``.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

import suite  # noqa: E402  (imports repro)
from repro.harness.spec import compile_spec  # noqa: E402

if __name__ == "__main__":
    compile_spec(suite.build_spec(sys.argv[1], int(sys.argv[2])))
    print(time.perf_counter() - START)
