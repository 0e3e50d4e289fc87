"""Session-scoped state: config binding, cache isolation, coexistence."""

import pytest

from repro import session as session_mod
from repro.config import RunConfig
from repro.session import Session, _session_for_config
from repro.sim import sweeps


def strip(payload: dict) -> dict:
    """Drop host-side wall-clock stats; everything else must be identical."""
    payload = dict(payload)
    stats = dict(payload.get("stats", {}))
    stats.pop("host", None)
    payload["stats"] = stats
    return payload


class TestSessionBasics:
    def test_binds_the_given_config(self, tmp_path):
        config = RunConfig(instructions=900, warmup=300,
                           trace_cache_dir=str(tmp_path))
        session = Session(config)
        assert session.config == config
        assert session.trace_cache.disk_dir == str(tmp_path)

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

    def test_result_cache_is_lru_bounded_by_config(self, monkeypatch):
        monkeypatch.setattr(session_mod, "RESULT_CACHE_SIZE", 2)
        session = Session(RunConfig(instructions=800, warmup=400))
        for variant in ("tage64", "tage80", "mtage", "core_only"):
            session.run("sjeng_06", variant)
        assert len(session.result_cache) == 2


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


class TestRunCells:
    def test_serial_and_parallel_rows_identical(self):
        cells = [("sjeng_06", "tage64"), ("sjeng_06", "mini"),
                 ("mcf_06", "tage64"), ("mcf_06", "mini")]
        serial = Session(RunConfig(instructions=800, warmup=400))
        parallel = Session(RunConfig(instructions=800, warmup=400))
        serial_rows = serial.run_cells(cells, jobs=1)
        parallel_rows = parallel.run_cells(cells, jobs=2)
        assert [r["benchmark"] for r in parallel_rows] == \
            [c[0] for c in cells]
        for left, right in zip(serial_rows, parallel_rows):
            assert strip(left["payload"]) == strip(right["payload"])

    def test_jobs_default_comes_from_the_session_config(self):
        session = Session(RunConfig(instructions=800, warmup=400, jobs=2))
        rows = session.run_cells([("sjeng_06", "tage64"),
                                  ("sjeng_06", "tage80")])
        assert len(rows) == 2
        assert session.last_sweep["executor"] == "pool"

    def test_worker_session_resolution(self):
        config = RunConfig(instructions=777, warmup=0)
        session = _session_for_config(config)
        assert session.config == config
        # same config resolves to the same (warm) session
        assert _session_for_config(config) is session


class TestDirectEntryPoints:
    """Session.simulate() for notebook callers."""

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


class TestSweepSessionThreading:
    def test_sweep_runs_inside_the_given_session(self):
        session = Session(RunConfig(instructions=800, warmup=400))
        series = sweeps.sweep_parameters(
            session, ["sjeng_06"], {"chain_cache_entries": [8, 64]})
        assert set(series["chain_cache_entries"]) == {8, 64}
        # reference + override cells all cached in *this* session, at
        # the sweep's own region length
        assert len(session.result_cache) == 3
        assert len(session.trace_cache) == 1
        assert {key[2] for key in session.result_cache} == \
            {sweeps.SWEEP_INSTRUCTIONS}


class TestSweepCells:
    """Figure 13 sweeps are override-token cells run through run_cells."""

    BENCHMARKS = ["sjeng_06", "cc"]
    VALUES = [2, 64]

    def sweep(self, session):
        series = sweeps.sweep_parameters(
            session, self.BENCHMARKS,
            {"prediction_queue_entries": self.VALUES})
        assert list(series) == ["prediction_queue_entries"]
        return series["prediction_queue_entries"]

    def test_series_matches_direct_simulate_calls(self):
        from repro.core.config import mini
        from repro.predictors.registry import PREDICTORS
        from repro.sim.results import arithmetic_mean, mpki_improvement
        from repro.sim.simulator import simulate
        from repro.workloads import suite

        def mpki(name, **overrides):
            return simulate(suite.load(name),
                            predictor=PREDICTORS.get("tage64")(),
                            br_config=mini(**overrides),
                            instructions=sweeps.SWEEP_INSTRUCTIONS,
                            warmup=sweeps.SWEEP_WARMUP).mpki

        reference = {name: mpki(name) for name in self.BENCHMARKS}
        # the queue sweep also scales the paired runahead_limit override
        expected = {value: arithmetic_mean(
            mpki_improvement(reference[name], mpki(
                name, prediction_queue_entries=value,
                runahead_limit=min(value, 32)))
            for name in self.BENCHMARKS) for value in self.VALUES}
        assert self.sweep(Session(RunConfig())) == expected

    def test_pool_sweep_matches_serial(self):
        serial = self.sweep(Session(RunConfig()))
        assert self.sweep(Session(RunConfig(jobs=2))) == serial

    def test_failed_cell_raises(self):
        with pytest.raises(RuntimeError, match="bogus_field"):
            sweeps.sweep_parameters(Session(RunConfig()), ["sjeng_06"],
                                    {"bogus_field": [1]})
