"""Drift tests for the MPKI-only replay fast path.

The contract pinned here is the one DESIGN.md §6a.2 states: for any
predictor-only cell, :func:`repro.sim.predictor_replay.replay_mpki_batch`
must produce branch statistics **bit-identical** to a full-timing
:func:`repro.sim.simulator.simulate` run of the same cell, lane by lane —
same MPKI, same per-PC mispredict breakdown, same warmup semantics,
including the short-stream ``warmup_truncated`` edge.  A lone cell is a
one-lane batch; every registered predictor is pinned both ways.  Any
divergence is a bug in the fast path, never an acceptable approximation.
"""

import pytest

from repro.isa.program import ProgramBuilder
from repro.predictors.tage_scl import tage_scl_64kb
from repro.config import RunConfig
from repro.predictors.registry import PREDICTORS, make_predictor
from repro.session import Session
from repro.sim.predictor_replay import (PredictorReplayResult,
                                        load_branch_columns,
                                        replay_mpki_batch)
from repro.sim.results import SimulationResult
from repro.sim.simulator import simulate
from repro.sim.trace_cache import TraceCache
from repro.sim.variants import spec_variant
from repro.workloads import suite

NAMES = sorted(PREDICTORS.names())


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


def replay_one(program, predictor, **region):
    """One cell through the replay path: a one-lane batch."""
    result, = replay_mpki_batch(program, [predictor], **region)
    return result


def assert_no_drift(benchmark, name, instructions, warmup):
    program = suite.load(benchmark)
    full = simulate(program, instructions=instructions, warmup=warmup,
                    predictor=make_predictor(name), trace_cache=TraceCache())
    fast = replay_one(program, make_predictor(name),
                      instructions=instructions, warmup=warmup,
                      trace_cache=TraceCache())
    assert branch_fields(fast.core) == branch_fields(full.core)
    return full, fast


class TestBitIdentity:
    @pytest.mark.parametrize("name", NAMES)
    def test_predictor_sweep_matches_full_timing(self, name):
        assert_no_drift("sjeng_06", name, instructions=1_500, warmup=700)

    @pytest.mark.parametrize("workload", ["mcf_17", "leela_17", "bfs"])
    def test_across_benchmarks(self, workload):
        assert_no_drift(workload, "tage64", instructions=1_200, warmup=600)

    @pytest.mark.parametrize("start", [2_500, 10_000])
    @pytest.mark.parametrize("workload", ["sjeng_06", "mcf_17", "bfs"])
    def test_mid_stream_start_matches_full_timing(self, workload, start):
        # a region that starts mid-stream (perfbench's predictor sweep
        # replays starts of 10k-40k) must still replay bit-identically,
        # every registered predictor as one lane of one batch
        program = suite.load(workload)
        region = dict(instructions=3_000, warmup=1_500,
                      start_instruction=start)
        lanes = replay_mpki_batch(program, NAMES, trace_cache=TraceCache(),
                                  **region)
        for name, fast in zip(NAMES, lanes):
            full = simulate(program, predictor=make_predictor(name),
                            trace_cache=TraceCache(), **region)
            assert branch_fields(fast.core) == branch_fields(full.core), \
                name

    def test_zero_warmup(self):
        full, fast = assert_no_drift("sjeng_06", "tage64",
                                     instructions=1_000, warmup=0)
        assert not fast.core.warmup_truncated

    def test_truncated_warmup(self):
        # the program HALTs before the stream crosses the warmup boundary:
        # both paths must report the whole run with the flag set
        program = halting_countdown()
        full = simulate(program, instructions=100, warmup=5_000,
                        predictor=tage_scl_64kb(), trace_cache=TraceCache())
        fast = replay_one(program, tage_scl_64kb(), instructions=100,
                          warmup=5_000, trace_cache=TraceCache())
        assert branch_fields(fast.core) == branch_fields(full.core)
        assert fast.core.warmup_truncated
        assert fast.core.instructions > 0

    def test_without_trace_cache(self):
        program = suite.load("sjeng_06")
        cached = replay_one(program, tage_scl_64kb(), instructions=1_000,
                            warmup=500, trace_cache=TraceCache())
        direct = replay_one(program, tage_scl_64kb(), instructions=1_000,
                            warmup=500, trace_cache=None)
        assert branch_fields(direct.core) == branch_fields(cached.core)


def columns_of(columns):
    return (columns.indices, columns.pcs, columns.takens,
            columns.record_count)


class TestBranchEvents:
    def test_cache_and_direct_paths_agree(self):
        program = suite.load("mcf_17")
        direct = load_branch_columns(program, 0, 1_000, trace_cache=None)
        cached = load_branch_columns(program, 0, 1_000,
                                     trace_cache=TraceCache())
        assert columns_of(direct) == columns_of(cached)

    def test_events_memoized_on_entry(self):
        program = suite.load("mcf_17")
        cache = TraceCache()
        columns = load_branch_columns(program, 0, 1_000, trace_cache=cache)
        entry = cache.lookup(program, 0, 1_000, count=False)
        assert entry.branch_columns is columns
        again = load_branch_columns(program, 0, 1_000, trace_cache=cache)
        assert again is columns  # second sweep pays no re-extraction


class TestReplayResult:
    def run_one(self):
        return replay_one(suite.load("sjeng_06"), tage_scl_64kb(),
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
    REGION = dict(instructions=1_200, warmup=600)

    @pytest.fixture
    def session(self):
        return Session(RunConfig(**self.REGION))

    def test_predictor_only_variant_takes_fast_path(self, session):
        result = session.run("sjeng_06", "tage64", outputs="mpki")
        assert isinstance(result, PredictorReplayResult)

    def test_spec_none_variant_takes_fast_path(self, session):
        token = spec_variant("tage80")
        result = session.run("sjeng_06", token, outputs="mpki")
        assert isinstance(result, PredictorReplayResult)

    def test_br_variant_falls_back_to_full_timing(self, session):
        result = session.run("sjeng_06", "mini", outputs="mpki")
        assert isinstance(result, SimulationResult)

    def test_fast_path_mpki_matches_full_run(self, session):
        fast = session.run("sjeng_06", "tage64", outputs="mpki")
        session.clear_caches()
        full = session.run("sjeng_06", "tage64", outputs="full")
        assert branch_fields(fast.core) == branch_fields(full.core)

    def test_modes_cached_under_distinct_keys(self, session):
        fast = session.run("sjeng_06", "tage64", outputs="mpki")
        full = session.run("sjeng_06", "tage64", outputs="full")
        assert isinstance(fast, PredictorReplayResult)
        assert isinstance(full, SimulationResult)
        # and the cache hands each mode back its own object
        assert session.run("sjeng_06", "tage64", outputs="mpki") is fast
        assert session.run("sjeng_06", "tage64", outputs="full") is full

    def test_run_cells_threads_outputs(self, session):
        cells = [("sjeng_06", "tage64"), ("sjeng_06", "tage80")]
        rows = session.run_cells(cells, jobs=1, outputs="mpki")
        assert all(row["payload"]["mpki_only"] for row in rows)
        assert all(row["payload"]["ipc"] is None for row in rows)

    def test_unknown_outputs_rejected(self, session):
        with pytest.raises(ValueError):
            session.run("sjeng_06", "tage64", outputs="cycles")
