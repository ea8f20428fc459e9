"""The scheme registry: how a benchmark is run under each configuration.

A *scheme* is one column of the paper's run matrix (Section 4.2,
Figure 5): it names the program variant to build and the prefetch engine
to simulate it on.  The five paper schemes are registered here; new ones
(say, a stride-ahead variant) are one :func:`register_scheme` call, and
everything downstream — ``runner.SCHEMES``, experiment specs, the CLI
``list schemes`` — picks them up by lookup instead of by editing if/elif
chains.

==============  =================  =============  =========================
scheme          program variant    engine         notes
==============  =================  =============  =========================
``base``        baseline           none           the unoptimized execution
``software``    ``sw:<idiom>``     software       explicit prefetch code
``cooperative`` ``coop:<idiom>``   cooperative    JPF + dependence hardware
``hardware``    baseline           hardware       DBP + JQT/JPR
``dbp``         baseline           dbp            comparison point [16]
==============  =================  =============  =========================

The scheme zoo (``pointer-chase``, ``stride``, ``cdp``, ``foresight`` —
:mod:`repro.prefetch.zoo`) registers below the paper's five; all run the
unmodified baseline program on a competing hardware prefetcher and are
raced by ``examples/specs/tournament.toml``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import WorkloadError
from ..prefetch.engines import ENGINES
from ..registry import Registry
from ..workloads import Workload


@dataclass(frozen=True)
class Scheme:
    """One run-matrix column: variant selection plus engine name.

    ``variant`` pins a fixed program variant (``"baseline"`` for the
    hardware-side schemes).  When it is None the scheme selects an
    idiom-specific variant: ``variant_prefix + idiom`` if an idiom is
    given, else the workload's first (paper-preferred) variant with that
    prefix.
    """

    name: str
    engine: str
    variant: str | None = None
    variant_prefix: str = ""
    description: str = ""
    #: ``"paper"`` schemes form the default figure matrix
    #: (``runner.SCHEMES``); ``"zoo"`` schemes only run when named
    #: explicitly (tournament spec, ``--scheme``, audit).
    group: str = "paper"

    def __post_init__(self) -> None:
        if self.variant is None and not self.variant_prefix:
            raise WorkloadError(
                f"scheme {self.name!r} needs a fixed variant or a "
                "variant_prefix to select one"
            )

    def plan(
        self, workload: Workload, idiom: str | None = None
    ) -> tuple[str, str]:
        """The (program variant, engine name) pair for ``workload``."""
        if self.variant is not None:
            return self.variant, self.engine
        if idiom is not None:
            variant = self.variant_prefix + idiom
            if variant not in workload.variants:
                raise WorkloadError(
                    f"{workload.name}: no variant {variant!r}; "
                    f"available: {workload.variants}"
                )
            return variant, self.engine
        for variant in workload.variants:
            if variant.startswith(self.variant_prefix):
                return variant, self.engine
        raise WorkloadError(f"{workload.name} has no {self.name} variant")


#: Scheme registry in the paper's presentation order.
SCHEME_REGISTRY: Registry[Scheme] = Registry("scheme", error=WorkloadError)


def register_scheme(scheme: Scheme) -> Scheme:
    """Register a scheme; its engine must already be registered."""
    if scheme.engine not in ENGINES:
        raise WorkloadError(
            f"scheme {scheme.name!r} names unknown engine "
            f"{scheme.engine!r}; available: {ENGINES.names()}"
        )
    return SCHEME_REGISTRY.register(scheme.name, scheme)


def get_scheme(name: str) -> Scheme:
    return SCHEME_REGISTRY.get(name)


def scheme_names() -> list[str]:
    """Registered scheme names, in registration (paper) order."""
    return SCHEME_REGISTRY.names()


def paper_scheme_names() -> list[str]:
    """The ``"paper"`` group, in registration order — the default matrix
    for the figure experiments.  Zoo schemes run only when named
    explicitly (tournament spec, ``--scheme``, the audit gate)."""
    return [
        name for name in SCHEME_REGISTRY.names()
        if SCHEME_REGISTRY.get(name).group == "paper"
    ]


def scheme_plan(
    workload: Workload, scheme: str, idiom: str | None = None
) -> tuple[str, str]:
    """Maps a scheme name to (program variant, engine name)."""
    return get_scheme(scheme).plan(workload, idiom)


register_scheme(Scheme(
    "base", engine="none", variant="baseline",
    description="the unoptimized execution",
))
register_scheme(Scheme(
    "software", engine="software", variant_prefix="sw:",
    description="explicit jump-pointer prefetch code",
))
register_scheme(Scheme(
    "cooperative", engine="cooperative", variant_prefix="coop:",
    description="software JPF + dependence hardware",
))
register_scheme(Scheme(
    "hardware", engine="hardware", variant="baseline",
    description="DBP + JQT/JPR, no code changes",
))
register_scheme(Scheme(
    "dbp", engine="dbp", variant="baseline",
    description="dependence-based prefetching, comparison point [16]",
))

# -- the scheme zoo (ROADMAP: competing prefetchers, raced by the
# tournament spec).  All hardware-side: they run the unmodified baseline
# program, so adding one is exactly one registration.
register_scheme(Scheme(
    "pointer-chase", engine="pointer-chase", variant="baseline",
    description="dedicated traversal unit chasing the recurrent "
                "dependence ahead of the core (arXiv:1801.08088)",
    group="zoo",
))
register_scheme(Scheme(
    "stride", engine="stride", variant="baseline",
    description="per-PC reference prediction table (Chen & Baer), the "
                "non-pointer baseline",
    group="zoo",
))
register_scheme(Scheme(
    "cdp", engine="cdp", variant="baseline",
    description="content-directed prefetching: chase every committed "
                "value that looks like a heap pointer",
    group="zoo",
))
register_scheme(Scheme(
    "foresight", engine="foresight", variant="baseline",
    description="proactive burst prefetch at annotated structure entry "
                "(foresight-style, arXiv:2606.13321)",
    group="zoo",
))
