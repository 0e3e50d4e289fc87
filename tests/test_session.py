"""Session-scoped state: config binding, cache isolation, coexistence."""

import pytest

from repro.config import RunConfig
from repro.session import (
    Session,
    _session_for_config,
    default_session,
    set_default_session,
)
from repro.sim import experiments


def strip(payload: dict) -> dict:
    """Drop host-side wall-clock stats; everything else must be identical."""
    payload = dict(payload)
    stats = dict(payload.get("stats", {}))
    stats.pop("host", None)
    payload["stats"] = stats
    return payload


class TestSessionBasics:
    def test_binds_the_given_config(self):
        config = RunConfig(instructions=900, warmup=300,
                           trace_cache_size=4)
        session = Session(config)
        assert session.config == config
        assert session.trace_cache.capacity == 4

    def test_defaults_to_the_environment_config(self, monkeypatch):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "4321")
        assert Session().config.instructions == 4321

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            Session(RunConfig(instructions=0))

    def test_run_uses_the_session_region(self):
        session = Session(RunConfig(instructions=800, warmup=400))
        result = session.run("sjeng_06", "tage64")
        assert result.core.instructions == 800

    def test_result_cache_is_lru_bounded_by_config(self):
        session = Session(RunConfig(instructions=800, warmup=400,
                                    result_cache_size=2))
        for variant in ("tage64", "tage80", "mtage", "core_only"):
            session.run("sjeng_06", variant)
        assert len(session.result_cache) == 2

    def test_reconfigure_trims_bounds_keeps_contents(self):
        session = Session(RunConfig(instructions=800, warmup=400))
        first = session.run("sjeng_06", "tage64")
        session.reconfigure(session.config.replace(result_cache_size=1))
        # the cached result survived the reconfigure
        assert session.run("sjeng_06", "tage64") is first
        session.run("sjeng_06", "tage80")
        assert len(session.result_cache) == 1


class TestTwoSessionsCoexist:
    """Acceptance: two sessions with different configs in one process."""

    def test_independent_results_and_caches(self):
        short = Session(RunConfig(instructions=800, warmup=400))
        long = Session(RunConfig(instructions=1600, warmup=400))
        short_result = short.run("sjeng_06", "tage64")
        long_result = long.run("sjeng_06", "tage64")
        assert short_result.core.instructions == 800
        assert long_result.core.instructions == 1600
        assert len(short.result_cache) == 1
        assert len(long.result_cache) == 1
        assert len(short.trace_cache) == 1
        assert len(long.trace_cache) == 1
        # each session's cache serves its own region only
        assert short.run("sjeng_06", "tage64") is short_result
        assert long.run("sjeng_06", "tage64") is long_result

    def test_sessions_match_fresh_isolated_computation(self):
        shared_era = Session(RunConfig(instructions=800, warmup=400))
        shared_era.run("sjeng_06", "mini")  # warm trace cache, other cell
        session = Session(RunConfig(instructions=800, warmup=400))
        lone = Session(RunConfig(instructions=800, warmup=400))
        assert strip(session.run("sjeng_06", "tage64").to_dict()) == \
            strip(lone.run("sjeng_06", "tage64").to_dict())

    def test_default_session_is_untouched_by_explicit_sessions(self):
        default = default_session()
        cached_before = len(default.result_cache)
        session = Session(RunConfig(instructions=800, warmup=400))
        session.run("sjeng_06", "tage64")
        assert len(default.result_cache) == cached_before

    def test_set_default_session_swaps(self):
        replacement = Session(RunConfig(instructions=800, warmup=400))
        previous = set_default_session(replacement)
        try:
            result = experiments.run("sjeng_06", "tage64")
            assert result.core.instructions == 800
            assert len(replacement.result_cache) == 1
        finally:
            set_default_session(previous)


class TestRunCells:
    def test_serial_and_parallel_rows_identical(self):
        cells = [("sjeng_06", "tage64"), ("sjeng_06", "mini"),
                 ("mcf_06", "tage64"), ("mcf_06", "mini")]
        serial = Session(RunConfig(instructions=800, warmup=400))
        parallel = Session(RunConfig(instructions=800, warmup=400))
        serial_rows = serial.run_cells(cells, jobs=1, chunksize=2)
        parallel_rows = parallel.run_cells(cells, jobs=2, chunksize=2)
        assert [r["benchmark"] for r in parallel_rows] == \
            [c[0] for c in cells]
        for left, right in zip(serial_rows, parallel_rows):
            assert strip(left["payload"]) == strip(right["payload"])

    def test_jobs_default_comes_from_the_session_config(self):
        session = Session(RunConfig(instructions=800, warmup=400, jobs=2))
        rows = session.run_cells([("sjeng_06", "tage64"),
                                  ("sjeng_06", "tage80")])
        assert len(rows) == 2

    def test_merge_folds_cell_registries(self):
        session = Session(RunConfig(instructions=800, warmup=400))
        rows = session.run_cells([("sjeng_06", "tage64"),
                                  ("mcf_06", "tage64")], merge=True)
        merged = session.registry
        total = sum(row["payload"]["stats"]["core"]["instructions"]
                    for row in rows)
        assert merged.get("core.instructions").value == total

    def test_worker_session_resolution(self):
        config = RunConfig(instructions=777, warmup=0)
        session = _session_for_config(config)
        assert session.config == config
        # same config resolves to the same (warm) session
        assert _session_for_config(config) is session
        # the default session is preferred when its config matches
        default = default_session()
        assert _session_for_config(default.config) is default


class TestDirectEntryPoints:
    """Session.simulate() / Session.replay_mpki() for notebook callers."""

    def test_simulate_uses_session_region_and_trace_cache(self):
        session = Session(RunConfig(instructions=800, warmup=400))
        result = session.simulate("sjeng_06", predictor="tage64")
        assert result.core.instructions == 800
        assert len(session.trace_cache) == 1

    def test_simulate_memoizes_plain_kwargs(self):
        session = Session(RunConfig(instructions=800, warmup=400))
        first = session.simulate("sjeng_06", predictor="tage64",
                                 br_config="mini")
        assert session.simulate("sjeng_06", predictor="tage64",
                                br_config="mini") is first
        assert session.simulate("sjeng_06", predictor="tage64",
                                br_config="big") is not first

    def test_simulate_never_caches_component_instances(self):
        from repro.predictors.registry import PREDICTORS
        session = Session(RunConfig(instructions=800, warmup=400))
        predictor = PREDICTORS.get("tage64")()
        first = session.simulate("sjeng_06", predictor=predictor)
        # a stateful instance must not be aliased through the cache
        assert session.simulate("sjeng_06", predictor=predictor) \
            is not first
        assert len(session.result_cache) == 0

    def test_simulate_matches_variant_run(self):
        session = Session(RunConfig(instructions=800, warmup=400))
        lone = Session(RunConfig(instructions=800, warmup=400))
        direct = session.simulate("sjeng_06", predictor="tage64",
                                  br_config="mini")
        via_variant = lone.run("sjeng_06", "mini")
        assert strip(direct.to_dict()) == strip(via_variant.to_dict())

    def test_replay_mpki_name_is_the_cached_fast_path(self):
        session = Session(RunConfig(instructions=800, warmup=400))
        replayed = session.replay_mpki("sjeng_06", "tage64")
        assert replayed.to_dict()["ipc"] is None  # no timing model ran
        # same key as run(outputs="mpki"): the result is shared
        assert session.run("sjeng_06", "tage64", outputs="mpki") \
            is replayed

    def test_replay_mpki_matches_full_timing_mpki(self):
        session = Session(RunConfig(instructions=800, warmup=400))
        replayed = session.replay_mpki("sjeng_06", "tage64")
        full = session.run("sjeng_06", "tage64")
        assert replayed.mpki == full.mpki

    def test_replay_mpki_accepts_a_predictor_instance(self):
        from repro.predictors.registry import PREDICTORS
        session = Session(RunConfig(instructions=800, warmup=400))
        replayed = session.replay_mpki("sjeng_06",
                                       PREDICTORS.get("tage64")())
        assert replayed.mpki == session.run("sjeng_06", "tage64").mpki
        # instance replays are uncached; only the run() result is stored
        assert len(session.result_cache) == 1

    def test_module_level_facade_delegates_to_default_session(self):
        replacement = Session(RunConfig(instructions=800, warmup=400))
        previous = set_default_session(replacement)
        try:
            result = experiments.simulate("sjeng_06", predictor="tage64")
            assert result.core.instructions == 800
            replayed = experiments.replay_mpki("sjeng_06", "tage64")
            assert replayed.mpki == result.mpki
            assert len(replacement.trace_cache) == 1
        finally:
            set_default_session(previous)


class TestSweepSessionThreading:
    def test_sweep_runs_inside_the_given_session(self):
        from repro.sim import sweeps
        session = Session(RunConfig(instructions=800, warmup=400))
        series = sweeps.sweep_parameter(
            "chain_cache_entries", ["sjeng_06"], values=[8, 64],
            session=session)
        assert set(series) == {8, 64}
        # reference + override cells all cached in *this* session, and
        # every fresh cell reported into its merged registry
        assert len(session.result_cache) == 3
        assert len(session.trace_cache) == 1
        instructions = session.registry.get("core.instructions").value
        assert instructions == 3 * sweeps.SWEEP_INSTRUCTIONS

    def test_sweep_reads_region_env_per_call(self, monkeypatch):
        from repro.sim import sweeps  # imported before the env is set
        monkeypatch.setenv(sweeps.SWEEP_INSTRUCTIONS_ENV, "700")
        monkeypatch.setenv(sweeps.SWEEP_WARMUP_ENV, "300")
        session = Session(RunConfig(instructions=800, warmup=400))
        sweeps.sweep_parameter("chain_cache_entries", ["sjeng_06"],
                               values=[8], session=session)
        assert {key[2:4] for key in session.result_cache} == {(700, 300)}
        instructions = session.registry.get("core.instructions").value
        assert instructions == 2 * 700

    def test_sweep_defaults_to_the_default_session(self):
        replacement = Session(RunConfig(instructions=800, warmup=400))
        previous = set_default_session(replacement)
        try:
            from repro.sim import sweeps
            sweeps.sweep_parameter("hbt_entries", ["sjeng_06"],
                                   values=[8])
            assert len(replacement.result_cache) >= 1
        finally:
            set_default_session(previous)
