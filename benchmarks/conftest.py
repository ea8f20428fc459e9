"""Benchmark harness configuration.

Each benchmark regenerates one table or figure of the paper from its
shipped spec file (``examples/specs/``, on the ``bench`` machine) and
prints it (run with ``-s`` to see the tables).  ``pytest-benchmark`` wraps each harness in a single-round
``pedantic`` call — the interesting output is the reproduced table, not
the wall-clock of the harness itself.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.harness import ExperimentSpec, load_spec

SPEC_DIR = Path(__file__).resolve().parents[1] / "examples" / "specs"


def shipped(name: str) -> ExperimentSpec:
    """The shipped ``examples/specs/<name>.toml`` experiment."""
    return load_spec(SPEC_DIR / f"{name}.toml")


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark and return its value."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def once():
    return run_once
