"""Simulation-engine equivalence: table vs reference.

The two entries of :data:`repro.isa.engines.SIM_ENGINES` must be
bit-identical on every program.  Property tests generate random short
programs (random ALU/memory loop bodies, a call exercising JAL/JR and
the RAS, a linked-list walk feeding the prefetch engines) and pin

* the committed-instruction stream (pc, addr, value, taken) and final
  architectural state of the table interpreter against the reference
  interpreter,
* the full timing :class:`~repro.cpu.stats.SimResult` of both engines
  against each other, and
* fault behaviour: an ``ExecutionError`` raised by one engine must be
  raised by the other, with the same message.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Assembler, small_config
from repro.audit.diff import diff_commit_streams
from repro.cpu.simulator import simulate
from repro.errors import ExecutionError, ReproError
from repro.harness import ExperimentSpec, SpecError, figure5_spec
from repro.isa.engines import (
    DEFAULT_SIM_ENGINE,
    SIM_ENGINES,
    default_sim_engine,
    resolve_sim_engine,
)
from repro.isa.registers import A0, A1, RA, T0, T1, T2, T3, V0, ZERO


# ----------------------------------------------------------------------
# Random short programs
# ----------------------------------------------------------------------

#: One random loop-body instruction: (mnemonic, needs_imm).  All write
#: T1/T2 from T1/T2/T3 so any interleaving stays well-defined (no
#: div-by-zero: divisors come from T3, pinned nonzero below).
_ALU = ("add", "sub", "mul", "and_", "or_", "xor", "slt")

body_ops = st.lists(
    st.tuples(st.sampled_from(_ALU), st.sampled_from([T1, T2]),
              st.sampled_from([T1, T2, T3])),
    min_size=1, max_size=10,
)


def _random_program(ops, iters, seed, with_call):
    """Bounded loop of random ALU ops + a list walk + an optional call."""
    a = Assembler()
    arr = a.array([(seed * (i + 1)) % 977 for i in range(8)])
    head = a.word(0)
    a.label("main")
    a.li(T0, iters)
    a.li(T3, (seed % 13) + 1)          # nonzero: safe divisor/operand
    a.li(T1, seed % 251)
    a.li(T2, (seed // 3) % 251)
    # Build a short linked list so lds-tagged loads have pointers to chase.
    a.li(A0, 4)
    a.label("build")
    a.beqz(A0, "loop")
    a.alloc(A1, ZERO, 16)
    a.sw(A0, A1, 0)
    a.li(V0, head)
    a.lw(T3, V0, 0)
    a.sw(T3, A1, 4)
    a.sw(A1, V0, 0)
    a.li(T3, (seed % 13) + 1)          # restore the pinned operand
    a.addi(A0, A0, -1)
    a.j("build")
    a.label("loop")
    a.beqz(T0, "walk")
    for op, rd, rs2 in ops:
        getattr(a, op)(rd, rd, rs2)
    a.lw(V0, ZERO, arr + 4 * (seed % 8))
    a.sw(T1, ZERO, arr + 4 * ((seed + 3) % 8))
    if with_call:
        a.jal("leaf")
    a.addi(T0, T0, -1)
    a.j("loop")
    a.label("walk")
    a.li(A0, head)
    a.lw(T1, A0, 0, tag="lds")
    a.label("wloop")
    a.beqz(T1, "done")
    a.lw(V0, T1, 0, pad=8, tag="lds")
    a.lw(T1, T1, 4, pad=8, tag="lds")
    a.j("wloop")
    a.label("done")
    a.halt()
    if with_call:
        a.label("leaf")
        a.addi(T2, T2, 1)
        a.jr(RA)
    return a.assemble("sim_engine_prop")


class TestEngineLockstepProps:
    @given(body_ops,
           st.integers(min_value=0, max_value=12),
           st.integers(min_value=0, max_value=10_000),
           st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_commit_streams_identical(self, ops, iters, seed, with_call):
        program = _random_program(ops, iters, seed, with_call)
        divergence = diff_commit_streams(program)
        assert divergence is None, divergence.describe()

    @given(body_ops,
           st.integers(min_value=0, max_value=12),
           st.integers(min_value=0, max_value=10_000),
           st.sampled_from(["none", "hardware", "dbp", "cooperative"]))
    @settings(max_examples=20, deadline=None)
    def test_timing_results_identical(self, ops, iters, seed, engine):
        program = _random_program(ops, iters, seed, True)
        cfg = small_config()
        table = simulate(program, cfg, engine=engine, sim_engine="table")
        ref = simulate(program, cfg, engine=engine, sim_engine="reference")
        assert ref.cycles == table.cycles
        assert ref.to_dict() == table.to_dict()


class TestEngineFaultParity:
    def test_execution_errors_match(self):
        a = Assembler()
        a.label("main")
        a.li(T0, 7)
        a.li(T1, 0)
        a.div(T2, T0, T1)
        a.halt()
        program = a.assemble("sim_engine_fault")
        cfg = small_config()
        messages = {}
        for name in SIM_ENGINES.names():
            with pytest.raises(ExecutionError) as exc:
                simulate(program, cfg, sim_engine=name)
            messages[name] = str(exc.value)
        assert len(set(messages.values())) == 1, messages


class TestSimEngineRegistry:
    def test_default_and_env_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
        assert default_sim_engine() == DEFAULT_SIM_ENGINE == "table"
        monkeypatch.setenv("REPRO_SIM_ENGINE", "reference")
        assert default_sim_engine() == "reference"
        assert resolve_sim_engine().name == "reference"
        assert resolve_sim_engine("table").name == "table"

    def test_unknown_env_engine_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "turbo")
        with pytest.raises(ReproError):
            default_sim_engine()

    def test_spec_naming_a_removed_engine_rejected(self):
        doc = figure5_spec(benchmarks=("treeadd",)).to_dict()
        doc["engine"] = "compiled"
        with pytest.raises(SpecError, match="compiled"):
            ExperimentSpec.from_dict(doc)
