"""Smoke tests for the observability-facing CLI commands."""

import json

import pytest

from repro.cli import main as cli_main
from repro.config import RunConfig
from repro.observe.journal import read_journal
from repro.sim.results import ipc_improvement, mpki_improvement


class TestConfigCommand:
    def test_defaults_with_provenance(self, capsys):
        assert cli_main(["config"]) == 0
        out = capsys.readouterr().out
        assert "instructions" in out and "default" in out
        assert "precedence: default < config file < REPRO_* env < flag" \
            in out

    def test_json_layering(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"instructions": 3000, "warmup": 100}')
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "4000")
        code = cli_main(["--config-file", str(path), "config",
                         "--jobs", "2", "--json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["config"]["instructions"] == 4000  # env beat file
        assert document["config"]["warmup"] == 100         # file beat default
        assert document["config"]["jobs"] == 2             # flag
        assert document["provenance"] == {
            "instructions": "env", "warmup": "file", "jobs": "flag",
            "trace_cache_dir": "default", "variant": "default",
            "result_store_dir": "default"}
        assert document["config_file"] == str(path)

    def test_every_field_has_a_flag(self, capsys):
        flags = {"instructions": "900", "warmup": "90", "jobs": "3",
                 "trace_cache_dir": "traces", "variant": "big",
                 "result_store_dir": "store"}
        assert set(flags) == set(RunConfig.field_names())
        argv = ["config", "--json"]
        for field, value in flags.items():
            argv += ["--" + field.replace("_", "-"), value]
        assert cli_main(argv) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["provenance"] == dict.fromkeys(flags, "flag")
        assert document["config"] == {
            field: int(value) if value.isdigit() else value
            for field, value in flags.items()}

    def test_config_file_env_var(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"variant": "big"}')
        monkeypatch.setenv("REPRO_CONFIG", str(path))
        assert cli_main(["config", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["config"]["variant"] == "big"
        assert document["config_file"] == str(path)


class TestConfigErrors:
    """A config that does not resolve is a one-line usage error (exit 2)."""

    @pytest.mark.parametrize("argv", [
        ["compare", "sjeng_06", "--jobs", "0"],
        ["run", "sjeng_06", "--instructions", "0"],
    ], ids=["jobs", "instructions"])
    def test_out_of_range_flag(self, argv, capsys):
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and err.count("\n") == 1
        assert "must be >= 1, got 0" in err

    def test_unknown_config_file_key(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"instructionz": 3000}')
        assert cli_main(["--config-file", str(path), "compare",
                         "sjeng_06"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: unknown config file key(s) "
                              "['instructionz']")


class TestConfigFileReachesSweeps:
    def test_config_file_jobs_and_store_reach_compare(self, tmp_path):
        # --config-file must reach the sweep `compare` runs, not only
        # `repro config`: its jobs start a pool and its store fills
        store = tmp_path / "store"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"jobs": 2,
                                    "result_store_dir": str(store)}))
        journal = tmp_path / "sweep.jsonl"
        code = cli_main(["--config-file", str(path), "compare", "sjeng_06",
                         "--instructions", "300", "--warmup", "200",
                         "--journal", str(journal)])
        assert code == 0
        started = read_journal(str(journal))["events"][0]
        assert started["event"] == "sweep_started"
        assert started["jobs"] == 2
        assert started["executor"] == "pool"
        assert len(list(store.glob("*.result"))) == 2


class TestListCommand:
    @pytest.mark.parametrize("kind,expected", [
        ("benchmarks", "sjeng_06"),
        ("predictors", "tage64"),
        ("configs", "mini"),
        ("variants", "mtage+big"),
    ])
    def test_kinds(self, kind, expected, capsys):
        assert cli_main(["list", "--kind", kind]) == 0
        assert expected in capsys.readouterr().out

    def test_default_kind_is_benchmarks(self, capsys):
        assert cli_main(["list"]) == 0
        assert "sjeng_06" in capsys.readouterr().out

    def test_output_is_stable_sorted(self, capsys):
        for kind in ("benchmarks", "predictors", "configs", "variants"):
            assert cli_main(["list", "--kind", kind]) == 0
            lines = capsys.readouterr().out.strip().splitlines()[1:]
            names = [line.split()[0] for line in lines]
            assert names == sorted(names), f"{kind} not sorted"

    def test_all_sections(self, capsys):
        assert cli_main(["list", "--kind", "all"]) == 0
        out = capsys.readouterr().out
        for section in ("[benchmarks]", "[predictors]", "[configs]",
                        "[variants]"):
            assert section in out


class TestResolvedRegionDefaults:
    def test_run_region_follows_env(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "1000")
        monkeypatch.setenv("REPRO_WARMUP", "500")
        code = cli_main(["run", "sjeng_06", "--config", "none", "--json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["stats"]["core"]["instructions"] == 1000

    def test_flag_beats_env(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "9999")
        code = cli_main(["run", "sjeng_06", "--config", "none",
                         "--instructions", "1000", "--warmup", "500",
                         "--json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["stats"]["core"]["instructions"] == 1000

    def test_default_br_config_comes_from_variant_field(
            self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_VARIANT", "core-only")
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "1000")
        monkeypatch.setenv("REPRO_WARMUP", "500")
        assert cli_main(["run", "sjeng_06", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["branch_runahead"] is True


class TestRunJson:
    def test_run_json_emits_stat_namespaces(self, capsys):
        code = cli_main(["run", "mcf_06", "--config", "mini",
                         "--instructions", "2000", "--warmup", "1000",
                         "--json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["benchmark"] == "mcf_06"
        assert document["branch_runahead"] is True
        for namespace in ("core", "predictor", "dce", "pq"):
            assert namespace in document["stats"], f"missing {namespace}.*"

    def test_run_json_baseline_has_no_dce(self, capsys):
        code = cli_main(["run", "sjeng_06", "--config", "none",
                         "--instructions", "1000", "--warmup", "500",
                         "--json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["branch_runahead"] is False
        assert "dce" not in document["stats"]
        assert "predictor" in document["stats"]


class TestStatsCommand:
    def test_stats_dumps_tree(self, capsys):
        code = cli_main(["stats", "sjeng_06", "--config", "mini",
                         "--instructions", "1000", "--warmup", "500"])
        assert code == 0
        tree = json.loads(capsys.readouterr().out)
        assert tree["core"]["instructions"] == 1000
        assert "pq" in tree and "dce" in tree

    def test_stats_flat_names(self, capsys):
        code = cli_main(["stats", "sjeng_06", "--config", "mini",
                         "--instructions", "1000", "--warmup", "500",
                         "--flat"])
        assert code == 0
        flat = json.loads(capsys.readouterr().out)
        assert flat["core.instructions"] == 1000
        assert any(name.startswith("pq.") for name in flat)


class TestTraceCommand:
    def test_trace_writes_chrome_file(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = cli_main(["trace", "mcf_06", "--config", "mini",
                         "--instructions", "2000", "--warmup", "1000",
                         "--out", str(out)])
        assert code == 0
        assert "events" in capsys.readouterr().out
        chrome = json.loads(out.read_text())
        names = {event["name"] for event in chrome["traceEvents"]
                 if event["ph"] != "M"}
        assert "chain_launch" in names
        assert "pq_override" in names or "pq_pop" in names

    def test_trace_writes_jsonl(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        code = cli_main(["trace", "sjeng_06", "--config", "mini",
                         "--instructions", "1000", "--warmup", "500",
                         "--out", str(out), "--format", "jsonl"])
        assert code == 0
        lines = [json.loads(line)
                 for line in out.read_text().splitlines() if line]
        assert lines and all("name" in line and "cycle" in line
                             for line in lines)


class TestCompare:
    def test_compare_accepts_predictor_flag(self, capsys):
        code = cli_main(["compare", "sjeng_06", "--predictor", "tage80",
                         "--instructions", "1000", "--warmup", "500"])
        assert code == 0
        assert "ΔMPKI" in capsys.readouterr().out

    def test_compare_json_rows(self, capsys):
        code = cli_main(["compare", "sjeng_06", "--json",
                         "--instructions", "1000", "--warmup", "500"])
        assert code == 0
        row = json.loads(capsys.readouterr().out.strip())
        assert row["benchmark"] == "sjeng_06"
        assert "mpki_improvement_pct" in row
        assert row["predictor"] == "tage64"

    def test_zero_baselines_do_not_divide_by_zero(self):
        # the helpers _cmd_compare now delegates to must stay total
        assert mpki_improvement(0.0, 5.0) == 0.0
        assert ipc_improvement(0.0, 1.0) == 0.0


class TestCompareMpkiOnly:
    def test_table_drops_ipc_columns(self, capsys):
        code = cli_main(["compare", "sjeng_06", "--mpki-only",
                         "--instructions", "1000", "--warmup", "500"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ΔMPKI" in out
        assert "IPC" not in out

    def test_json_rows_have_no_ipc(self, capsys):
        code = cli_main(["compare", "sjeng_06", "--mpki-only", "--json",
                         "--instructions", "1000", "--warmup", "500"])
        assert code == 0
        row = json.loads(capsys.readouterr().out.strip())
        assert "ipc" not in row["baseline"]
        assert "ipc_improvement_pct" not in row
        assert row["baseline"]["mpki"] > 0


class TestJournaledSweeps:
    """`--journal` + `repro sweep report/watch` end to end."""

    def run_compare(self, tmp_path, benchmarks, jobs="4"):
        path = tmp_path / "sweep.jsonl"
        code = cli_main(["compare", *benchmarks,
                         "--instructions", "1000", "--warmup", "500",
                         "--jobs", jobs, "--journal", str(path)])
        return code, str(path)

    def test_parallel_compare_journal_matches_fresh_rows(self, tmp_path,
                                                         capsys):
        from repro.config import RunConfig
        from repro.observe.journal import read_journal
        from repro.session import Session
        from repro.sim.bench import payload_digest
        from repro.sim.variants import spec_variant

        code, path = self.run_compare(tmp_path, ["sjeng_06", "mcf_06"])
        assert code == 0
        assert "ΔMPKI" in capsys.readouterr().out
        journal = read_journal(path)
        assert journal["complete"] and not journal["truncated"]
        finished = [event for event in journal["events"]
                    if event["event"] == "cell_finished"]
        assert len(finished) == 4  # 2 benchmarks x (baseline, BR)

        # an independent serial session must reproduce the same digests
        cells = [(event["benchmark"], event["variant"])
                 for event in finished]
        fresh = Session(RunConfig(instructions=1000, warmup=500)) \
            .run_cells(cells, jobs=1)
        assert [event["payload_sha256"] for event in finished] == \
            [payload_digest(row["payload"]) for row in fresh]
        assert cells == [(name, token) for name in ("sjeng_06", "mcf_06")
                         for token in (spec_variant("tage64"),
                                       spec_variant("tage64", "mini"))]

    def test_sweep_report_on_a_compare_journal(self, tmp_path, capsys):
        code, path = self.run_compare(tmp_path, ["sjeng_06"], jobs="2")
        assert code == 0
        capsys.readouterr()
        report_path = tmp_path / "report.json"
        code = cli_main(["sweep", "report", path, "--json",
                         "--report", str(report_path)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"]
        assert report["sweep"]["cells_done"] == 2
        assert json.loads(report_path.read_text()) == report

    def test_failing_cell_exits_nonzero_but_finishes(self, tmp_path,
                                                     capsys):
        from repro.observe.journal import read_journal
        code, path = self.run_compare(tmp_path,
                                      ["sjeng_06", "no_such_bench"],
                                      jobs="2")
        assert code == 1
        captured = capsys.readouterr()
        assert "no_such_bench" in captured.err and "failed" in captured.err
        assert "sjeng_06" in captured.out  # the good benchmark printed
        kinds = [e["event"] for e in read_journal(path)["events"]]
        assert kinds.count("cell_failed") == 2
        assert kinds[-1] == "sweep_finished"
        capsys.readouterr()
        assert cli_main(["sweep", "report", path]) == 1
        assert "UnknownComponentError" in capsys.readouterr().out

    def test_sweep_watch_once(self, tmp_path, capsys):
        code, path = self.run_compare(tmp_path, ["sjeng_06"], jobs="1")
        assert code == 0
        capsys.readouterr()
        assert cli_main(["sweep", "watch", path, "--once"]) == 0
        line = capsys.readouterr().out
        assert "sweep 2/2 cells" in line and "finished" in line

    def test_sweep_watch_once_missing_journal(self, tmp_path, capsys):
        code = cli_main(["sweep", "watch",
                         str(tmp_path / "missing.jsonl"), "--once"])
        assert code == 2
        assert "journal not found" in capsys.readouterr().err

    def test_sweep_report_rejects_non_journal(self, tmp_path, capsys):
        path = tmp_path / "nope.jsonl"
        path.write_text('{"event": "bogus"}\n')
        assert cli_main(["sweep", "report", str(path)]) == 2
        assert "not a repro-journal-v1" in capsys.readouterr().err

    def test_compare_journal_and_progress(self, tmp_path, capsys):
        from repro.observe.journal import read_journal
        path = tmp_path / "sweep.jsonl"
        code = cli_main(["compare", "sjeng_06",
                         "--instructions", "800", "--warmup", "400",
                         "--jobs", "2", "--journal", str(path),
                         "--progress"])
        assert code == 0
        captured = capsys.readouterr()
        assert "sweep" in captured.err  # forced progress on a pipe
        assert "ΔMPKI" in captured.out
        journal = read_journal(str(path))
        assert journal["complete"]
        finished = [event for event in journal["events"]
                    if event["event"] == "cell_finished"]
        assert len(finished) == 2  # baseline and BR cells
