"""Component registries: registration rules, discovery, extensibility.

The extensibility tests are the acceptance criterion of the registry
refactor: ONE ``@register_predictor`` definition must make a new
component addressable through ``Session.run``/``run_cells``, ``spec:``
tokens, the MPKI replay fast path, the CLI choices, and ``repro list`` —
with no second registration anywhere.
"""

import pytest

from repro import cli
from repro.config import RunConfig
from repro.predictors.base import AlwaysTakenPredictor
from repro.predictors.registry import PREDICTORS, register_predictor
from repro.registry import Registry, RegistryError, UnknownComponentError
from repro.session import Session
from repro.sim.variants import (
    BR_VARIANTS,
    is_predictor_only,
    register_variant,
    spec_variant,
)
from repro.workloads import suite
from repro.workloads.registry import (
    BENCHMARK_REGISTRY,
    register_benchmark,
    unregister_benchmark,
)

REGION = dict(instructions=800, warmup=400)


@pytest.fixture
def session():
    return Session(RunConfig(**REGION))


class TestRegistryBasics:
    def test_insertion_order_and_sorted_view(self):
        registry = Registry("widget")
        for name in ("zeta", "alpha", "mid"):
            registry.register(name, name.upper())
        assert registry.names() == ["zeta", "alpha", "mid"]
        assert registry.names(sort=True) == ["alpha", "mid", "zeta"]
        assert list(registry) == ["zeta", "alpha", "mid"]

    def test_duplicate_name_raises(self):
        registry = Registry("widget")
        registry.register("x", 1)
        with pytest.raises(RegistryError, match="duplicate widget 'x'"):
            registry.register("x", 2)
        # the original registration survives the failed overwrite
        assert registry.get("x") == 1

    def test_duplicate_raise_is_a_value_error(self):
        registry = Registry("widget")
        registry.register("x", 1)
        with pytest.raises(ValueError):
            registry.register("x", 2)

    def test_decorator_form_returns_object_unchanged(self):
        registry = Registry("widget")

        @registry.register("fn", role="demo")
        def fn():
            return 42

        assert fn() == 42
        assert registry.get("fn") is fn
        assert registry.meta("fn") == {"role": "demo"}

    def test_invalid_names_rejected(self):
        registry = Registry("widget")
        with pytest.raises(RegistryError):
            registry.register("", 1)
        with pytest.raises(RegistryError):
            registry.register(3, 1)

    def test_unknown_name_suggests_near_misses(self):
        registry = Registry("widget")
        registry.register("tage64", 1)
        registry.register("tage80", 2)
        with pytest.raises(UnknownComponentError) as exc_info:
            registry.get("tage46")
        message = str(exc_info.value)
        assert "unknown widget 'tage46'" in message
        assert "did you mean" in message and "tage64" in message
        assert "choose from" in message

    def test_unknown_name_is_a_key_error(self):
        with pytest.raises(KeyError):
            Registry("widget").get("nope")

    def test_unregister(self):
        registry = Registry("widget")
        registry.register("x", 1)
        registry.unregister("x")
        assert "x" not in registry
        with pytest.raises(UnknownComponentError):
            registry.unregister("x")


class TestBuiltinCatalogues:
    def test_predictors_present(self):
        assert {"tage64", "tage80", "mtage"} <= set(PREDICTORS.names())
        for name in PREDICTORS:
            assert PREDICTORS.meta(name)["predictor_only"] is True

    def test_benchmark_registry_matches_suite_order(self):
        figure_names = [b.name for b in suite.BENCHMARKS]
        assert figure_names == suite.BENCHMARK_NAMES
        assert "stress_many" in BENCHMARK_REGISTRY
        assert "stress_many" not in suite.BENCHMARK_NAMES

    def test_variant_name_predictor_collision_rejected(self):
        with pytest.raises(ValueError, match="collides"):
            register_variant("tage64")(lambda: {})


class TestOneDecoratorExtensibility:
    @pytest.fixture
    def toy_predictor(self):
        @register_predictor("toy-taken",
                            description="always-taken toy baseline")
        def toy_taken():
            return AlwaysTakenPredictor()

        yield "toy-taken"
        PREDICTORS.unregister("toy-taken")

    def test_runs_through_run_and_matrix(self, toy_predictor, session):
        result = session.run("sjeng_06", toy_predictor)
        assert result.mpki > 0
        # the same cell, recomputed through the sweep runner
        (row,) = session.run_cells([("sjeng_06", toy_predictor)],
                                   cache=False)
        assert row["payload"]["mpki"] == result.mpki

    def test_takes_the_mpki_replay_fast_path(self, toy_predictor,
                                             session):
        assert is_predictor_only(toy_predictor)
        result = session.run("sjeng_06", toy_predictor, outputs="mpki")
        assert result.mpki_only is True
        full = session.run("sjeng_06", toy_predictor, cache=False)
        assert result.mpki == full.mpki  # bit-identical outcomes

    def test_composes_into_spec_tokens(self, toy_predictor, session):
        token = spec_variant(toy_predictor, "mini")
        result = session.run("sjeng_06", token)
        assert result.runahead is not None

    def test_addressable_from_the_cli(self, toy_predictor, capsys):
        code = cli.main(["run", "sjeng_06", "--predictor", toy_predictor,
                         "--config", "none", "--instructions", "800",
                         "--warmup", "400"])
        assert code == 0
        assert "sjeng_06" in capsys.readouterr().out

    def test_listed_by_repro_list(self, toy_predictor, capsys):
        assert cli.main(["list", "--kind", "predictors"]) == 0
        out = capsys.readouterr().out
        assert "toy-taken" in out and "always-taken toy baseline" in out

    def test_toy_benchmark_round_trip(self, session):
        from repro.workloads.stress import many_branches

        @register_benchmark("toy-bench", suite="test", extra=True)
        def build():
            return many_branches()

        try:
            result = session.run("toy-bench", "tage64")
            assert result.program_name
            # extra benchmarks never leak into the paper's figure list
            assert "toy-bench" not in suite.BENCHMARK_NAMES
            assert "toy-bench" in suite.all_names()
        finally:
            unregister_benchmark("toy-bench")

    def test_toy_variant_round_trip(self, session):
        @register_variant("toy-variant")
        def toy_variant():
            return dict(predictor=AlwaysTakenPredictor())

        try:
            result = session.run("sjeng_06", "toy-variant")
            assert result.mpki > 0
            assert not is_predictor_only("toy-variant")
        finally:
            BR_VARIANTS.unregister("toy-variant")
