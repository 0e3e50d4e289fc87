"""Drift tests for the MPKI-only replay fast path.

The contract pinned here is the one DESIGN.md §6a states: for any
predictor-only cell, :func:`repro.sim.predictor_replay.replay_mpki` must
produce branch statistics **bit-identical** to a full-timing
:func:`repro.sim.simulator.simulate` run of the same cell — same MPKI,
same per-PC mispredict breakdown, same warmup semantics, including the
short-stream ``warmup_truncated`` edge.  Any divergence is a bug in the
fast path, never an acceptable approximation.
"""

import pytest

from repro.isa.program import ProgramBuilder
from repro.predictors.mtage import mtage_sc
from repro.predictors.tage_scl import tage_scl_64kb, tage_scl_80kb
from repro.sim import experiments
from repro.sim.predictor_replay import (PredictorReplayResult,
                                        load_branch_columns, replay_mpki)
from repro.sim.results import SimulationResult
from repro.sim.simulator import simulate
from repro.sim.trace_cache import TraceCache
from repro.telemetry import StatRegistry
from repro.workloads import suite

PREDICTORS = {
    "tage64": tage_scl_64kb,
    "tage80": tage_scl_80kb,
    "mtage": mtage_sc,
}


def halting_countdown(iterations=40):
    """A short program that actually HALTs (suite workloads run forever)."""
    b = ProgramBuilder(name="countdown")
    i, = b.regs("i")
    b.movi(i, iterations)
    b.label("top")
    b.addi(i, i, -1)
    b.cmpi(i, 0)
    b.br("ne", "top")
    b.halt()
    return b.build()


def branch_fields(core):
    """Every branch-outcome statistic both paths are required to agree on."""
    return {
        "instructions": core.instructions,
        "cond_branches": core.cond_branches,
        "taken_branches": core.taken_branches,
        "mispredicts": core.mispredicts,
        "baseline_mispredicts": core.baseline_mispredicts,
        "warmup_truncated": core.warmup_truncated,
        "mpki": core.mpki,
        "branch_counts": dict(core.branch_counts),
        "branch_mispredicts": dict(core.branch_mispredicts),
    }


def assert_no_drift(benchmark, factory, instructions, warmup):
    program = suite.load(benchmark)
    full = simulate(program, instructions=instructions, warmup=warmup,
                    predictor=factory(), trace_cache=TraceCache())
    fast = replay_mpki(program, factory(), instructions=instructions,
                       warmup=warmup, trace_cache=TraceCache())
    assert branch_fields(fast.core) == branch_fields(full.core)
    return full, fast


class TestBitIdentity:
    @pytest.mark.parametrize("name", sorted(PREDICTORS))
    def test_predictor_sweep_matches_full_timing(self, name):
        assert_no_drift("sjeng_06", PREDICTORS[name],
                        instructions=1_500, warmup=700)

    @pytest.mark.parametrize("workload", ["mcf_17", "leela_17", "bfs"])
    def test_across_benchmarks(self, workload):
        assert_no_drift(workload, tage_scl_64kb,
                        instructions=1_200, warmup=600)

    def test_zero_warmup(self):
        full, fast = assert_no_drift("sjeng_06", tage_scl_64kb,
                                     instructions=1_000, warmup=0)
        assert not fast.core.warmup_truncated

    def test_truncated_warmup(self):
        # the program HALTs before the stream crosses the warmup boundary:
        # both paths must report the whole run with the flag set
        program = halting_countdown()
        full = simulate(program, instructions=100, warmup=5_000,
                        predictor=tage_scl_64kb(), trace_cache=TraceCache())
        fast = replay_mpki(program, tage_scl_64kb(), instructions=100,
                           warmup=5_000, trace_cache=TraceCache())
        assert branch_fields(fast.core) == branch_fields(full.core)
        assert fast.core.warmup_truncated
        assert fast.core.instructions > 0

    def test_without_trace_cache(self):
        program = suite.load("sjeng_06")
        cached = replay_mpki(program, tage_scl_64kb(), instructions=1_000,
                             warmup=500, trace_cache=TraceCache())
        direct = replay_mpki(program, tage_scl_64kb(), instructions=1_000,
                             warmup=500, trace_cache=None)
        assert branch_fields(direct.core) == branch_fields(cached.core)


class TestBranchEvents:
    def test_cache_and_direct_paths_agree(self):
        program = suite.load("mcf_17")
        direct = load_branch_columns(program, 0, 1_000, trace_cache=None)
        cached = load_branch_columns(program, 0, 1_000,
                                     trace_cache=TraceCache())
        assert direct.events() == cached.events()
        assert direct.record_count == cached.record_count

    def test_events_memoized_on_entry(self):
        program = suite.load("mcf_17")
        cache = TraceCache()
        events = load_branch_columns(program, 0, 1_000,
                                     trace_cache=cache).events()
        entry = cache.lookup(program, 0, 1_000, count=False)
        assert entry.branch_columns.events() is events
        again = load_branch_columns(program, 0, 1_000,
                                    trace_cache=cache).events()
        assert again is events  # second sweep pays no re-extraction


class TestReplayResult:
    def run_one(self):
        return replay_mpki(suite.load("sjeng_06"), tage_scl_64kb(),
                           instructions=1_000, warmup=500,
                           trace_cache=TraceCache())

    def test_payload_shape(self):
        payload = self.run_one().to_dict()
        assert payload["mpki_only"] is True
        assert payload["branch_runahead"] is False
        assert payload["ipc"] is None  # no timing model ran
        assert payload["mpki"] == pytest.approx(payload["mpki"])
        stats = payload["stats"]
        assert "memsys" not in stats  # no fabricated timing namespaces
        assert "cycles" not in stats.get("core", {})
        assert stats["core"]["fetch"]["cond_branches"] > 0
        assert "trace_cache" in stats["host"]

    def test_summary_mentions_mode(self):
        assert "mpki-only" in self.run_one().summary()

    def test_registry_cached(self):
        result = self.run_one()
        assert result.build_registry() is result.build_registry()


class TestExperimentsDispatch:
    @pytest.fixture(autouse=True)
    def fresh_caches(self):
        experiments.clear_caches()
        yield
        experiments.clear_caches()

    REGION = dict(instructions=1_200, warmup=600)

    def test_predictor_only_variant_takes_fast_path(self):
        result = experiments.run("sjeng_06", "tage64", outputs="mpki",
                                 **self.REGION)
        assert isinstance(result, PredictorReplayResult)

    def test_spec_none_variant_takes_fast_path(self):
        token = experiments.spec_variant("tage80")
        result = experiments.run("sjeng_06", token, outputs="mpki",
                                 **self.REGION)
        assert isinstance(result, PredictorReplayResult)

    def test_br_variant_falls_back_to_full_timing(self):
        result = experiments.run("sjeng_06", "mini", outputs="mpki",
                                 **self.REGION)
        assert isinstance(result, SimulationResult)

    def test_fast_path_mpki_matches_full_run(self):
        fast = experiments.run("sjeng_06", "tage64", outputs="mpki",
                               **self.REGION)
        experiments.clear_caches()
        full = experiments.run("sjeng_06", "tage64", outputs="full",
                               **self.REGION)
        assert branch_fields(fast.core) == branch_fields(full.core)

    def test_modes_cached_under_distinct_keys(self):
        fast = experiments.run("sjeng_06", "tage64", outputs="mpki",
                               **self.REGION)
        full = experiments.run("sjeng_06", "tage64", outputs="full",
                               **self.REGION)
        assert isinstance(fast, PredictorReplayResult)
        assert isinstance(full, SimulationResult)
        # and the cache hands each mode back its own object
        assert experiments.run("sjeng_06", "tage64", outputs="mpki",
                               **self.REGION) is fast
        assert experiments.run("sjeng_06", "tage64", outputs="full",
                               **self.REGION) is full

    def test_run_cells_threads_outputs(self):
        cells = [("sjeng_06", "tage64"), ("sjeng_06", "tage80")]
        rows = experiments.run_cells(cells, jobs=1, outputs="mpki",
                                     **self.REGION)
        assert all(row["payload"]["mpki_only"] for row in rows)
        assert all(row["payload"]["ipc"] is None for row in rows)

    def test_run_matrix_merged_registry(self):
        matrix, registry = experiments.run_matrix(
            variants=["tage64", "tage80"], benchmarks=["sjeng_06"],
            jobs=1, outputs="mpki", merged=True, **self.REGION)
        assert matrix["sjeng_06"]["tage64"]["mpki_only"] is True
        per_cell = [
            experiments.run("sjeng_06", variant, outputs="mpki",
                            **self.REGION).core.cond_branches
            for variant in ("tage64", "tage80")]
        merged = registry.get("core.fetch.cond_branches")
        assert merged.value == sum(per_cell)  # counters add across cells

    def test_unknown_outputs_rejected(self):
        with pytest.raises(ValueError):
            experiments.run("sjeng_06", "tage64", outputs="cycles")


class TestRegistryState:
    def test_round_trip(self):
        registry = StatRegistry()
        registry.counter("a.events").add(7)
        registry.gauge("a.ratio").set(0.25)
        registry.histogram("a.dist").record_many([1, 2, 2, 9])
        rebuilt = StatRegistry.from_state(registry.to_state())
        assert rebuilt.to_flat_dict() == registry.to_flat_dict()
        assert rebuilt.get("a.dist").values == [1, 2, 2, 9]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            StatRegistry.from_state({"x": ["sketch", 1]})

    def test_state_survives_merge(self):
        left = StatRegistry()
        left.counter("n").add(3)
        right = StatRegistry()
        right.counter("n").add(4)
        merged = StatRegistry.from_state(left.to_state()).merge(
            StatRegistry.from_state(right.to_state()))
        assert merged.get("n").value == 7
