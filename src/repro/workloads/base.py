"""Workload abstractions.

A workload is one Olden program re-implemented as a mini-ISA kernel.  Each
workload can be built in several *variants*:

* ``baseline``     — the unmodified program (annotated loads only, which
  are semantic no-ops without jump-pointer hardware);
* ``sw:<idiom>``   — software JPP: jump-pointer fields, queue-method
  creation code and explicit prefetch instructions;
* ``coop:<idiom>`` — cooperative JPP: same jump-pointers, but prefetches
  are single ``JPF`` instructions and chained prefetching is left to the
  dependence hardware.

Hardware JPP and DBP run the *baseline* program (they need no code
changes), so the run matrix of the paper's Figure 5 is:

====================  ==========  ============
scheme                variant     engine
====================  ==========  ============
base                  baseline    none
software              sw:idiom    software
cooperative           coop:idiom  cooperative
hardware              baseline    hardware
dbp                   baseline    dbp
====================  ==========  ============

Every build returns a :class:`BuiltProgram` whose ``check`` verifies the
kernel's functional result against a Python mirror computation, so the
prefetch variants are provably semantics-preserving.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable

from ..errors import WorkloadError
from ..isa.interpreter import Interpreter
from ..isa.program import Program


@dataclass
class BuiltProgram:
    """An assembled workload variant plus its functional ground truth."""

    program: Program
    expected: dict[str, Any] = field(default_factory=dict)
    check: Callable[[Interpreter], None] | None = None

    def verify(self, interp: Interpreter) -> None:
        """Assert the finished interpreter state matches the mirror."""
        if self.check is not None:
            self.check(interp)


class Workload(abc.ABC):
    """One benchmark program; subclasses provide :meth:`build_variant`."""

    #: registry key, e.g. ``"health"``
    name: str = ""
    #: Table-1 structure description
    structure: str = ""
    #: Table-1 idiom assessment: the idioms the paper judges worth
    #: implementing.  Every one has ``sw:``/``coop:`` variants, but the
    #: variants may go further: bisort and tsp (volatile lists) and
    #: voronoi (transient strips) list none, so Table 1 prints "-", yet
    #: carry a queue variant that Figure 5 runs.
    idioms: tuple[str, ...] = ()
    #: variants accepted by :meth:`build` besides ``baseline``
    variants: tuple[str, ...] = ("baseline",)
    #: paper-derived note on expected behaviour (used in docs/reports)
    expectation: str = ""

    def __init__(self, **params: Any) -> None:
        defaults = self.default_params()
        unknown = set(params) - set(defaults)
        if unknown:
            raise WorkloadError(
                f"{self.name}: unknown parameter(s) {sorted(unknown)}; "
                f"valid: {sorted(defaults)}"
            )
        self.params = {**defaults, **params}

    @classmethod
    def default_params(cls) -> dict[str, Any]:
        return {}

    @classmethod
    def test_params(cls) -> dict[str, Any]:
        """Small sizes for unit tests."""
        return {}

    def build(self, variant: str = "baseline") -> BuiltProgram:
        if variant not in self.variants:
            raise WorkloadError(
                f"{self.name}: unsupported variant {variant!r}; "
                f"available: {self.variants}"
            )
        return self.build_variant(variant)

    @abc.abstractmethod
    def build_variant(self, variant: str) -> BuiltProgram:
        """Assemble the program for ``variant``."""


def parse_variant(variant: str) -> tuple[str, str | None]:
    """Split ``"sw:chain"`` into ``("sw", "chain")``; baseline has no idiom."""
    if variant == "baseline":
        return "baseline", None
    impl, __, idiom = variant.partition(":")
    if impl not in ("sw", "coop") or not idiom:
        raise WorkloadError(f"malformed variant name {variant!r}")
    return impl, idiom
