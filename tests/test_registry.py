"""The generic Registry and the four experiment-axis registries built on
it (machines, engines, schemes, workloads), including the drift guard
between ``runner.SCHEMES`` and the scheme registry."""

import pytest

from repro.errors import ReproError, WorkloadError
from repro.harness.runner import SCHEMES
from repro.harness.schemes import (
    SCHEME_REGISTRY,
    Scheme,
    get_scheme,
    register_scheme,
    scheme_names,
)
from repro.prefetch.engines import ENGINES
from repro.registry import Registry


class TestRegistry:
    def test_register_and_get(self):
        reg = Registry("thing")
        reg.register("a", 1)
        reg.register("b", 2)
        assert reg.get("a") == 1
        assert "b" in reg and "c" not in reg
        assert len(reg) == 2

    def test_registration_order_preserved(self):
        reg = Registry("thing")
        for name in ("zeta", "alpha", "mid"):
            reg.register(name, name)
        assert reg.names() == ["zeta", "alpha", "mid"]
        assert reg.names(sort=True) == ["alpha", "mid", "zeta"]
        assert list(reg) == ["zeta", "alpha", "mid"]

    def test_duplicate_rejected(self):
        reg = Registry("thing")
        reg.register("a", 1)
        with pytest.raises(ReproError, match="duplicate thing"):
            reg.register("a", 2)

    def test_empty_name_rejected(self):
        with pytest.raises(ReproError, match="without a name"):
            Registry("thing").register("", 1)

    def test_unknown_name_lists_available(self):
        reg = Registry("thing", error=WorkloadError)
        reg.register("a", 1)
        with pytest.raises(WorkloadError, match=r"unknown thing 'x'.*'a'"):
            reg.get("x")

    def test_lazy_loader_runs_once(self):
        calls = []

        def load():
            calls.append(1)
            reg.register("late", 42)

        reg = Registry("thing", loader=load)
        assert reg.get("late") == 42
        assert reg.names() == ["late"]
        assert calls == [1]

    def test_unregister_is_idempotent(self):
        reg = Registry("thing")
        reg.register("a", 1)
        reg.unregister("a")
        reg.unregister("a")  # no-op when absent
        assert "a" not in reg

    def test_as_dict_is_a_snapshot(self):
        reg = Registry("thing")
        reg.register("a", 1)
        snap = reg.as_dict()
        snap["b"] = 2
        assert "b" not in reg


class TestSchemeRegistry:
    def test_paper_order(self):
        assert scheme_names() == [
            "base", "software", "cooperative", "hardware", "dbp",
            "pointer-chase", "stride", "cdp", "foresight",
        ]

    def test_runner_schemes_derived_from_registry(self):
        # Drift guard: runner.SCHEMES must be the registry's paper-group
        # view, so a newly registered paper scheme automatically reaches
        # the runner — while zoo schemes stay out of the figure matrices.
        assert SCHEMES == tuple(
            name for name in scheme_names()
            if get_scheme(name).group == "paper"
        )
        assert SCHEMES == ("base", "software", "cooperative",
                           "hardware", "dbp")
        assert set(SCHEMES) < set(scheme_names())

    def test_every_scheme_engine_registered(self):
        for name in scheme_names():
            assert get_scheme(name).engine in ENGINES

    def test_register_rejects_unknown_engine(self):
        with pytest.raises(WorkloadError, match="unknown engine"):
            register_scheme(Scheme("warp", engine="ftl", variant="baseline"))
        assert "warp" not in SCHEME_REGISTRY

    def test_scheme_needs_variant_or_prefix(self):
        with pytest.raises(WorkloadError, match="fixed variant"):
            Scheme("broken", engine="none")

    def test_register_and_unregister(self):
        scheme = Scheme("test-hw2", engine="hardware", variant="baseline")
        register_scheme(scheme)
        try:
            assert get_scheme("test-hw2") is scheme
        finally:
            SCHEME_REGISTRY.unregister("test-hw2")
        assert "test-hw2" not in SCHEME_REGISTRY
