"""Regression observatory: baselines, exact checks, manifests."""

import hashlib
import json
import os

import pytest

from repro.cli import main as cli_main
from repro.config import RunConfig
from repro.observe import baseline as ob
from repro.observe.manifest import run_manifest
from repro.session import Session

#: The tiny matrix every run-based test here uses (keeps reruns cheap).
MATRIX = dict(benchmarks=["mcf_17"], variants=["tage64", "mini"],
              instructions=800, warmup=400)


class TestStatExtraction:
    def test_flatten_skips_histograms_keeps_scalars(self):
        stats = {"core": {"instructions": 800,
                          "branches": {"mispredicts_per_pc": {
                              "count": 3, "mean": 2.0, "min": 1,
                              "max": 3, "p50": 2, "p90": 3, "p99": 3}}},
                 "predictor": {"accuracy": 0.5}}
        flat = ob.flatten_stats(stats)
        assert flat["core.instructions"] == 800
        assert flat["predictor.accuracy"] == 0.5
        assert flat["core.branches.mispredicts_per_pc.count"] == 3
        assert "core.branches.mispredicts_per_pc.mean" not in flat

    def test_chain_coverage_requires_a_chain_cache(self):
        assert ob.chain_coverage({"core.branches.static_cond": 10}) is None
        flat = {"core.branches.static_cond": 10,
                "dce.chain_cache.covered_branches": 4}
        assert ob.chain_coverage(flat) == pytest.approx(0.4)


#: The manifest's deterministic part: everything outside ``host``.
DETERMINISTIC = ("schema", "config", "config_fingerprint", "provenance")


class TestManifest:
    def test_deterministic_subset_is_stable_under_fixed_config(self):
        config = RunConfig(instructions=800, warmup=400)
        first = run_manifest(config)
        second = run_manifest(config)
        assert set(first) == {*DETERMINISTIC, "host"}
        # a differing host fact leaves the deterministic part alone, and
        # that part is byte-stable, not just dict-equal
        second["host"]["peak_rss_kb"] = -1
        canonical = lambda m: json.dumps(
            {key: m[key] for key in DETERMINISTIC}, sort_keys=True)
        assert canonical(first) == canonical(second)
        assert first["config"] == config.to_dict()
        assert first["config_fingerprint"] == config.fingerprint()

    def test_fingerprint_tracks_the_config(self):
        base = run_manifest(RunConfig(instructions=800, warmup=400))
        other = run_manifest(RunConfig(instructions=801, warmup=400))
        assert base["config_fingerprint"] != other["config_fingerprint"]

    def test_host_section_carries_forensics(self):
        manifest = run_manifest(RunConfig())
        host = manifest["host"]
        assert host["python"] and host["platform"]
        assert set(host) == {"git_sha", "python", "implementation",
                             "platform", "peak_rss_kb"}
        # explicit session configs have no layered provenance
        assert set(manifest["provenance"].values()) == {"explicit"}


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One recorded baseline set shared by the check tests (read-only).

    Module scope runs before conftest's per-test ``REPRO_*`` cleanup, so
    the recording clears those variables itself; otherwise a shell that
    exports them (CI's layered-config job) reshapes only this run.
    """
    out_dir = tmp_path_factory.mktemp("baselines")
    with pytest.MonkeyPatch.context() as monkeypatch:
        for name in [name for name in os.environ
                     if name.startswith("REPRO_")]:
            monkeypatch.delenv(name)
        report = ob.record_baselines(out_dir=str(out_dir), **MATRIX)
    return str(out_dir), report


class TestRecord:
    def test_one_file_per_benchmark_with_expected_metrics(self, recorded):
        out_dir, report = recorded
        assert report["written"] == [f"{out_dir}/mcf_17.json"]
        document = json.load(open(report["written"][0]))
        assert document["schema"] == ob.BASELINE_SCHEMA
        assert document["instructions"] == 800
        variants = document["variants"]
        assert set(variants) == {"tage64", "mini"}
        for entry in variants.values():
            assert isinstance(entry["mpki"], float)
            assert isinstance(entry["ipc"], float)
            assert len(entry["digest"]) == 64
            assert entry["counters"]["core.instructions"] == 800
        # chain coverage exists only where Branch Runahead is attached
        assert variants["tage64"]["chain_coverage"] is None
        assert variants["mini"]["chain_coverage"] is not None
        assert document["manifest"]["config_fingerprint"]

    def test_region_and_jobs_default_to_the_session_config(self,
                                                             tmp_path):
        # no region or jobs argument: the handed session's config decides,
        # and the manifest records the region and jobs that ran
        session = Session(RunConfig(instructions=700, warmup=300, jobs=2))
        report = ob.record_baselines(benchmarks=["sjeng_06"],
                                     variants=["tage64"],
                                     out_dir=str(tmp_path), session=session)
        assert (report["instructions"], report["warmup"]) == (700, 300)
        config = report["manifest"]["config"]
        assert (config["instructions"], config["warmup"],
                config["jobs"]) == (700, 300, 2)
        document = json.load(open(report["written"][0]))
        assert document["variants"]["tage64"]["counters"][
            "core.instructions"] == 700

    def test_rerecord_is_byte_stable_outside_the_host_section(
            self, recorded, tmp_path):
        out_dir, report = recorded
        again = ob.record_baselines(out_dir=str(tmp_path), **MATRIX)
        first = json.load(open(report["written"][0]))
        second = json.load(open(again["written"][0]))
        # host facts live only in the manifest's host section; everything
        # else is a deterministic function of the config
        for document in (first, second):
            document["manifest"].pop("host")
        assert json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True)


class TestCheck:
    def test_identical_rerun_passes(self, recorded):
        out_dir, _ = recorded
        report = ob.check_baselines(baseline_dir=out_dir, **MATRIX)
        assert report["ok"]
        assert report["checked"] == ["mcf_17"]
        assert report["violations"] == []
        assert report["missing_baselines"] == []

    def _tampered(self, out_dir, tmp_path, mutate):
        document = json.load(open(f"{out_dir}/mcf_17.json"))
        mutate(document)
        path = tmp_path / "mcf_17.json"
        path.write_text(json.dumps(document))
        return ob.check_baselines(baseline_dir=str(tmp_path), **MATRIX)

    def test_injected_mpki_drift_fails(self, recorded, tmp_path):
        out_dir, _ = recorded

        def mutate(document):
            document["variants"]["mini"]["mpki"] += 0.5

        report = self._tampered(out_dir, tmp_path, mutate)
        assert not report["ok"]
        [finding] = [f for f in report["violations"]
                     if f["metric"] == "mpki"]
        assert finding["variant"] == "mini"
        assert finding["severity"] == "fail"

    def test_injected_digest_drift_fails(self, recorded, tmp_path):
        out_dir, _ = recorded

        def mutate(document):
            document["variants"]["tage64"]["digest"] = "0" * 64

        report = self._tampered(out_dir, tmp_path, mutate)
        assert not report["ok"]
        assert any(f["metric"] == "digest" and f["variant"] == "tage64"
                   for f in report["violations"])

    def test_injected_counter_drift_fails(self, recorded, tmp_path):
        out_dir, _ = recorded

        def mutate(document):
            document["variants"]["mini"]["counters"][
                "predictor.mispredicts"] += 1

        report = self._tampered(out_dir, tmp_path, mutate)
        assert any(f["metric"] == "counters.predictor.mispredicts"
                   for f in report["violations"])

    def test_region_mismatch_is_one_violation_not_noise(
            self, recorded, tmp_path):
        out_dir, _ = recorded
        matrix = dict(MATRIX, instructions=1200)
        report = ob.check_baselines(baseline_dir=out_dir, **matrix)
        assert not report["ok"]
        assert [f["metric"] for f in report["violations"]] == ["region"]

    def test_missing_baseline_fails(self, recorded):
        out_dir, _ = recorded
        matrix = dict(MATRIX, benchmarks=["mcf_17", "sjeng_06"])
        report = ob.check_baselines(baseline_dir=out_dir, **matrix)
        assert not report["ok"]
        assert report["missing_baselines"] == ["sjeng_06"]
        assert report["checked"] == ["mcf_17"]

    def test_explicit_session_is_used(self, recorded):
        out_dir, _ = recorded
        session = Session(RunConfig(instructions=MATRIX["instructions"],
                                    warmup=MATRIX["warmup"]))
        report = ob.check_baselines(baseline_dir=out_dir, session=session,
                                    **MATRIX)
        assert report["ok"]
        # the matrix ran through the supplied session's trace cache
        assert len(session.trace_cache) > 0


class TestReporting:
    def _failing_report(self):
        return {
            "schema": ob.CHECK_SCHEMA, "ok": False,
            "baseline_dir": "baselines",
            "benchmarks": ["mcf_17"], "variants": ["mini"],
            "instructions": 800, "warmup": 400,
            "checked": ["mcf_17"], "missing_baselines": ["sjeng_06"],
            "violations": [ob._violation(
                "mcf_17", "mini", "mpki", "mpki", 3.0, 4.0)],
        }

    def test_text_report_lists_failures_and_missing_baselines(self):
        text = ob.format_check_report(self._failing_report())
        assert "FAIL     mcf_17/mini: mpki" in text
        assert "MISSING  sjeng_06" in text
        assert "FAILED: 1 violation(s), 1 missing baseline(s)" in text

    def test_github_annotations(self):
        lines = ob.github_annotations(self._failing_report())
        assert any(line.startswith("::error file=baselines/mcf_17.json")
                   for line in lines)
        assert any("Missing baseline" in line for line in lines)


class TestBaselineCli:
    def test_record_then_check_roundtrip(self, tmp_path, capsys):
        args = ["--benchmarks", "mcf_17", "--variants", "tage64",
                "--instructions", "600", "--warmup", "300",
                "--dir", str(tmp_path)]
        assert cli_main(["baseline", "record", *args]) == 0
        out = capsys.readouterr().out
        assert "recorded 1 baseline(s)" in out
        assert cli_main(["baseline", "check", *args]) == 0
        assert "ok: all metrics within tolerance" in \
            capsys.readouterr().out

    def test_check_fails_on_drift_with_json_and_annotations(
            self, tmp_path, capsys):
        args = ["--benchmarks", "mcf_17", "--variants", "tage64",
                "--instructions", "600", "--warmup", "300",
                "--dir", str(tmp_path)]
        assert cli_main(["baseline", "record", *args]) == 0
        path = tmp_path / "mcf_17.json"
        document = json.loads(path.read_text())
        document["variants"]["tage64"]["mpki"] += 1.0
        path.write_text(json.dumps(document))
        capsys.readouterr()
        report_path = tmp_path / "check.json"
        code = cli_main(["baseline", "check", *args, "--json", "--github",
                         "--report", str(report_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "::error file=" in out
        report = json.loads(report_path.read_text())
        assert not report["ok"]
        assert report["schema"] == ob.CHECK_SCHEMA


class TestCommittedBaselines:
    """The baselines/ directory this repo actually gates CI on."""

    EXPECTED = ("mcf_17", "sjeng_06", "xz_17")

    def test_quick_matrix_benchmarks_are_all_recorded(self):
        names = sorted(name[:-len(".json")]
                       for name in os.listdir(ob.BASELINE_DIR)
                       if name.endswith(".json"))
        assert names == sorted(self.EXPECTED)

    @pytest.mark.parametrize("name", EXPECTED)
    def test_committed_baseline_shape(self, name):
        document = json.load(open(f"{ob.BASELINE_DIR}/{name}.json"))
        assert document["schema"] == ob.BASELINE_SCHEMA
        assert document["benchmark"] == name
        assert document["instructions"] == 3000
        assert document["warmup"] == 1500
        for variant in ("tage64", "mini", "big"):
            cell = document["variants"][variant]
            assert cell["digest"]
            assert cell["mpki"] >= 0
        # the stamped manifest must agree with the recorded region
        config = document["manifest"]["config"]
        assert config["instructions"] == document["instructions"]
        assert config["warmup"] == document["warmup"]
        # the stamp is self-consistent: its fingerprint hashes its config
        # and every config field has a provenance
        canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
        assert document["manifest"]["config_fingerprint"] == \
            hashlib.sha256(canonical.encode()).hexdigest()
        assert set(document["manifest"]["provenance"]) == set(config)

    def test_committed_xz_17_baseline_check_passes(self):
        report = ob.check_baselines(
            baseline_dir=ob.BASELINE_DIR, benchmarks=["xz_17"],
            variants=["tage64", "mini", "big"],
            instructions=3000, warmup=1500)
        assert report["checked"] == ["xz_17"]
        assert report["missing_baselines"] == []
        assert report["violations"] == []
        assert report["ok"]
