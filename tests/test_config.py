"""Layered RunConfig resolution: precedence, provenance, env semantics."""

import json
import pickle

import pytest

import repro.config as repro_config
from repro.config import (
    ENV_VARS,
    RunConfig,
    current_config,
    resolve_config,
)
from repro.observe.journal import read_journal
from repro.session import Session


class TestPrecedence:
    def test_defaults_when_nothing_set(self):
        resolved = resolve_config(environ={})
        assert resolved.config == RunConfig()
        assert set(resolved.provenance.values()) == {"default"}
        assert resolved.config_file is None

    def test_file_beats_default(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"instructions": 3000}')
        resolved = resolve_config(config_file=str(path), environ={})
        assert resolved.config.instructions == 3000
        assert resolved.provenance["instructions"] == "file"
        assert resolved.provenance["warmup"] == "default"
        assert resolved.config_file == str(path)

    def test_env_beats_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"instructions": 3000, "warmup": 100}')
        resolved = resolve_config(
            config_file=str(path),
            environ={"REPRO_INSTRUCTIONS": "4000"})
        assert resolved.config.instructions == 4000
        assert resolved.provenance["instructions"] == "env"
        # untouched file key still wins over the default
        assert resolved.config.warmup == 100
        assert resolved.provenance["warmup"] == "file"

    def test_flag_beats_env_and_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"instructions": 3000}')
        resolved = resolve_config(
            flags={"instructions": 5000},
            config_file=str(path),
            environ={"REPRO_INSTRUCTIONS": "4000"})
        assert resolved.config.instructions == 5000
        assert resolved.provenance["instructions"] == "flag"

    def test_none_flags_are_not_given(self):
        resolved = resolve_config(flags={"instructions": None},
                                  environ={"REPRO_INSTRUCTIONS": "4000"})
        assert resolved.config.instructions == 4000
        assert resolved.provenance["instructions"] == "env"

    def test_config_file_env_var_names_the_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"jobs": 3}')
        resolved = resolve_config(environ={"REPRO_CONFIG": str(path)})
        assert resolved.config.jobs == 3
        assert resolved.config_file == str(path)

    def test_empty_env_string_behaves_as_unset(self):
        resolved = resolve_config(environ={"REPRO_INSTRUCTIONS": ""})
        assert resolved.config.instructions == RunConfig.instructions
        assert resolved.provenance["instructions"] == "default"

    def test_every_field_has_an_env_var(self):
        assert ENV_VARS == {field: "REPRO_" + field.upper()
                            for field in RunConfig.field_names()}

    def test_unknown_flag_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config field"):
            resolve_config(flags={"instrs": 1}, environ={})

    def test_bad_env_value_names_its_source(self):
        with pytest.raises(ValueError, match="REPRO_INSTRUCTIONS"):
            resolve_config(environ={"REPRO_INSTRUCTIONS": "lots"})


class TestConfigFiles:
    def test_toml_file(self, tmp_path):
        if repro_config.tomllib is None:
            pytest.skip("tomllib needs Python 3.11+")
        path = tmp_path / "cfg.toml"
        path.write_text('instructions = 2500\nvariant = "big"\n')
        resolved = resolve_config(config_file=str(path), environ={})
        assert resolved.config.instructions == 2500
        assert resolved.config.variant == "big"

    def test_toml_rejected_without_tomllib(self, tmp_path, monkeypatch):
        monkeypatch.setattr(repro_config, "tomllib", None)
        path = tmp_path / "cfg.toml"
        path.write_text("instructions = 2500\n")
        with pytest.raises(ValueError, match="3.11"):
            resolve_config(config_file=str(path), environ={})

    def test_unknown_key_is_an_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"instrs": 1}')
        with pytest.raises(ValueError, match="instrs"):
            resolve_config(config_file=str(path), environ={})

    @pytest.mark.parametrize("key", ["result_cache_size",
                                     "trace_cache_size"])
    def test_removed_cache_size_keys_are_unknown(self, tmp_path, key):
        # the cache bounds are module constants now, not config fields
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: 64}))
        with pytest.raises(ValueError, match="unknown config file key"):
            resolve_config(config_file=str(path), environ={})

    def test_non_object_file_is_an_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="table/object"):
            resolve_config(config_file=str(path), environ={})


class TestRunConfigObject:
    def test_frozen(self):
        with pytest.raises(Exception):
            RunConfig().instructions = 7

    def test_hashable_and_usable_as_key(self):
        table = {RunConfig(instructions=100): "a", RunConfig(): "b"}
        assert table[RunConfig(instructions=100)] == "a"
        assert table[RunConfig()] == "b"

    def test_pickle_round_trip(self):
        config = RunConfig(instructions=123, trace_cache_dir="/tmp/x")
        assert pickle.loads(pickle.dumps(config)) == config

    def test_validation(self):
        with pytest.raises(ValueError, match="instructions"):
            RunConfig(instructions=0).validate()
        with pytest.raises(ValueError, match="warmup"):
            RunConfig(warmup=-1).validate()
        with pytest.raises(ValueError, match="jobs"):
            RunConfig(jobs=0).validate()

    def test_replace_validates(self):
        with pytest.raises(ValueError):
            RunConfig().replace(jobs=-2)
        assert RunConfig().replace(jobs=4).jobs == 4


class TestJobsResolver:
    """One worker-count rule: an explicit ``jobs`` argument (clamped to
    serial) beats the session config, whose env/file layers beat the
    serial default."""

    @staticmethod
    def sweep_jobs(session, tmp_path, **kwargs):
        path = str(tmp_path / "sweep.jsonl")
        session.run_cells([("sjeng_06", "bimodal")], instructions=300,
                          warmup=200, outputs="mpki", journal=path,
                          **kwargs)
        (built,) = [event for event in read_journal(path)["events"]
                    if event["event"] == "units_built"]
        return built["jobs"]

    def test_explicit_wins(self, tmp_path):
        session = Session(RunConfig(jobs=7))
        assert self.sweep_jobs(session, tmp_path, jobs=3) == 3

    def test_explicit_clamps_to_serial(self, tmp_path):
        session = Session(RunConfig(jobs=7))
        assert self.sweep_jobs(session, tmp_path, jobs=0) == 1
        assert self.sweep_jobs(session, tmp_path, jobs=-4) == 1

    def test_env_layer(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert self.sweep_jobs(Session(), tmp_path) == 7

    def test_default_is_serial(self, tmp_path):
        assert self.sweep_jobs(Session(), tmp_path) == 1


class TestEnvReadAtResolutionTime:
    """Regression: REPRO_* must not be snapshotted at import time."""

    def test_instructions_env_set_after_import(self, monkeypatch):
        before = Session().config.instructions
        monkeypatch.setenv("REPRO_INSTRUCTIONS", str(before + 777))
        assert Session().config.instructions == before + 777
        assert current_config().instructions == before + 777

    def test_warmup_and_variant_follow_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WARMUP", "41")
        monkeypatch.setenv("REPRO_VARIANT", "big")
        config = Session().config
        assert config.warmup == 41
        assert config.variant == "big"
