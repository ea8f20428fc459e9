"""The interpreter name recorded in benchmark run records.

The simulator has one functional interpreter, the decode-table
:class:`~repro.isa.interpreter.Interpreter`.  The only caller is
``bench/measure.py``, which writes ``resolve_sim_engine(None).name``
into every run record.
"""

from types import SimpleNamespace


def resolve_sim_engine(name: None = None) -> SimpleNamespace:
    """The one interpreter: ``.name == "table"``."""
    return SimpleNamespace(name="table")
