"""Tests for ``simulate()``, results arithmetic, and the cell runner."""

import pytest

from repro.config import RunConfig
from repro.core.config import mini
from repro.session import Session
from repro.sim.results import (
    arithmetic_mean,
    geometric_mean,
    hard_branch_accuracy,
    ipc_improvement,
    mpki_improvement,
)
from repro.sim.simulator import simulate
from repro.sim.variants import override_variant, variant_names
from repro.workloads import suite


class TestMetrics:
    def test_mpki_improvement_positive_when_fewer(self):
        assert mpki_improvement(10.0, 5.0) == pytest.approx(50.0)

    def test_mpki_improvement_negative_when_more(self):
        assert mpki_improvement(10.0, 12.0) == pytest.approx(-20.0)

    def test_mpki_improvement_zero_baseline(self):
        assert mpki_improvement(0.0, 5.0) == 0.0

    def test_ipc_improvement(self):
        assert ipc_improvement(1.0, 1.169) == pytest.approx(16.9)

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geometric_mean_empty(self):
        assert geometric_mean([]) == 0.0

    def test_arithmetic_mean(self):
        assert arithmetic_mean([1.0, 2.0, 3.0]) == 2.0


class TestSimulate:
    def test_returns_complete_result(self):
        program = suite.load("sjeng_06")
        result = simulate(program, instructions=3_000, warmup=1_000)
        assert result.core.instructions == 3_000
        assert result.ipc > 0 and result.mpki >= 0
        assert result.hierarchy is not None
        assert "sjeng_06" in result.summary()

    def test_br_attaches(self):
        program = suite.load("sjeng_06")
        result = simulate(program, instructions=3_000, warmup=1_000,
                          br_config=mini())
        assert result.runahead is not None
        assert result.dce is not None
        assert result.total_uops_issued() >= result.core.instructions

    def test_start_instruction_seeds_registers(self):
        """Mid-stream regions must see pre-region architectural state
        (otherwise chain live-ins read zeros)."""
        program = suite.load("deepsjeng_17")
        result = simulate(program, instructions=4_000, warmup=3_000,
                          start_instruction=10_000, br_config=mini())
        stats = result.runahead.stats
        checked = sum(stats.value_checks.values())
        correct = sum(stats.value_correct.values())
        assert checked > 100
        assert correct / checked > 0.5

    def test_start_instruction_zero_equivalent(self):
        program = suite.load("sjeng_06")
        a = simulate(program, instructions=3_000, warmup=1_000)
        b = simulate(program, instructions=3_000, warmup=1_000,
                     start_instruction=0)
        assert a.mpki == b.mpki and a.core.cycles == b.core.cycles


@pytest.fixture(scope="module")
def session():
    """One session for the runner tests: cells share its caches."""
    return Session(RunConfig())


class TestExperimentRunner:
    def test_cache_hit(self, session):
        first = session.run("sjeng_06", "tage64", instructions=2_000,
                            warmup=1_000)
        second = session.run("sjeng_06", "tage64", instructions=2_000,
                             warmup=1_000)
        assert first is second

    def test_variants_exist(self):
        for variant in ("tage64", "tage80", "mtage", "core_only", "mini",
                        "big", "mtage+big", "mini-nonspec", "mini-indep"):
            assert variant in variant_names()

    def test_br_override(self, session):
        result = session.run(
            "sjeng_06", override_variant("mini", chain_cache_entries=4),
            instructions=2_000, warmup=1_000)
        assert result.runahead.config.chain_cache_entries == 4

    def test_unknown_override_rejected(self, session):
        with pytest.raises(AttributeError):
            session.run("sjeng_06",
                        override_variant("mini", bogus_field=1),
                        instructions=2_000, warmup=1_000)

    def test_override_requires_br_variant(self, session):
        with pytest.raises(ValueError):
            session.run("sjeng_06",
                        override_variant("tage64", hbt_entries=4),
                        instructions=2_000, warmup=1_000)

    def test_hard_branch_accuracy(self, session):
        baseline = session.run("sjeng_06", "tage64", instructions=4_000,
                               warmup=2_000)
        tage_acc, same = hard_branch_accuracy(baseline)
        assert tage_acc == same  # no chains: both are predictor accuracy
        br = session.run("sjeng_06", "mini", instructions=4_000,
                         warmup=2_000)
        tage_acc, chain_acc = hard_branch_accuracy(br)
        assert chain_acc > tage_acc
