"""Drift-audited sweep reports built from flight-recorder journals."""

import json

from repro.config import RunConfig
from repro.observe.journal import read_journal
from repro.observe.sweep_report import (
    DRIFT_SEVERITY,
    SWEEP_REPORT_SCHEMA,
    build_sweep_report,
    exclusive_phases,
    format_sweep_report,
    format_watch_line,
    github_annotations,
    journal_snapshot,
)
from repro.session import Session

CELLS = [("sjeng_06", "tage64"), ("sjeng_06", "mini"),
         ("mcf_06", "tage64"), ("mcf_06", "mini")]


def record_journal(tmp_path, cells=CELLS, jobs=2, name="sweep.jsonl"):
    path = tmp_path / name
    session = Session(RunConfig(instructions=800, warmup=400))
    rows = session.run_cells(cells, jobs=jobs, journal=str(path))
    return str(path), rows


def rewrite(path, mutate):
    """Apply ``mutate(event) -> event|None`` to every journal line."""
    events = []
    with open(path) as handle:
        for line in handle:
            event = mutate(json.loads(line))
            if event is not None:
                events.append(event)
    with open(path, "w") as handle:
        for event in events:
            handle.write(json.dumps(event, sort_keys=True) + "\n")


class TestHealthySweepReport:
    def test_report_facts_match_the_journal(self, tmp_path):
        path, rows = record_journal(tmp_path)
        report = build_sweep_report(path)
        assert report["schema"] == SWEEP_REPORT_SCHEMA
        assert report["ok"]
        sweep = report["sweep"]
        assert sweep["total_cells"] == len(rows)
        assert sweep["cells_done"] == len(rows)
        assert sweep["cells_failed"] == 0
        assert sweep["complete"] and not sweep["truncated"]
        assert sweep["jobs"] == 2
        assert len(report["workers"]) == 2
        assert sum(info["cells"] for info in report["workers"]) == len(rows)
        assert report["drift"]["ok"]
        assert report["failures"] == []

    def test_accepts_a_pre_read_journal_dict(self, tmp_path):
        path, _rows = record_journal(tmp_path)
        journal = read_journal(path)
        assert build_sweep_report(journal)["ok"]

    def test_load_balance_and_slowest_cells(self, tmp_path):
        path, rows = record_journal(tmp_path)
        report = build_sweep_report(path, slowest=2)
        load = report["load"]
        assert load["workers"] == 2
        assert load["busiest_seconds"] >= load["idlest_seconds"]
        assert load["imbalance"] >= 1.0
        assert len(report["slowest_cells"]) == 2
        walls = [cell["wall_seconds"] for cell in report["slowest_cells"]]
        assert walls == sorted(walls, reverse=True)

    def test_text_rendering_mentions_ok(self, tmp_path):
        path, _rows = record_journal(tmp_path)
        text = format_sweep_report(build_sweep_report(path))
        assert "sweep report: 4/4 cells done" in text
        assert "ok: sweep complete, no failures, no worker drift" in text
        assert github_annotations(build_sweep_report(path)) == []


class TestDriftAudit:
    def test_policy_severities(self):
        assert DRIFT_SEVERITY == {"manifest_fingerprint": "fail",
                                  "host.git_sha": "fail",
                                  "host.python": "fail",
                                  "host.platform": "warn"}

    def test_drifted_worker_manifest_is_a_fail_violation(self, tmp_path):
        path, _rows = record_journal(tmp_path)

        def drift_first_worker(event):
            if event["event"] == "worker_started" \
                    and not drift_first_worker.done:
                drift_first_worker.done = True
                event["manifest_fingerprint"] = "0" * 64
                event["manifest"]["host"]["git_sha"] = "deadbeef"
            return event
        drift_first_worker.done = False
        rewrite(path, drift_first_worker)

        report = build_sweep_report(path)
        assert not report["ok"]
        assert not report["drift"]["ok"]
        metrics = {v["metric"] for v in report["drift"]["violations"]}
        assert metrics == {"manifest_fingerprint", "host.git_sha"}
        assert all(v["severity"] == "fail"
                   for v in report["drift"]["violations"])
        text = format_sweep_report(report)
        assert "DRIFT" in text and "drift violation(s)" in text
        assert any("::error title=Worker drift::" in line
                   for line in github_annotations(report))

    def test_platform_mismatch_only_warns(self, tmp_path):
        path, _rows = record_journal(tmp_path)

        def vary_platform(event):
            if event["event"] == "worker_started":
                event["manifest"]["host"]["platform"] = "elsewhere-os"
            return event
        rewrite(path, vary_platform)

        report = build_sweep_report(path)
        assert report["ok"]  # warnings never fail the report
        assert report["drift"]["ok"]
        assert {w["metric"] for w in report["drift"]["warnings"]} == \
            {"host.platform"}
        assert any("::warning title=Worker drift::" in line
                   for line in github_annotations(report))

    def test_worker_without_a_manifest_is_unauditable(self, tmp_path):
        path, _rows = record_journal(tmp_path)

        def strip_manifest(event):
            if event["event"] == "worker_started":
                event["manifest"] = None
                event["manifest_fingerprint"] = None
            return event
        rewrite(path, strip_manifest)

        report = build_sweep_report(path)
        assert not report["ok"]
        assert all(v["metric"] == "manifest" and v["severity"] == "fail"
                   for v in report["drift"]["violations"])
        assert "NO MANIFEST" in format_sweep_report(report)


class TestFailuresAndTruncation:
    def test_failed_cells_are_digested_by_exception_type(self, tmp_path):
        cells = [("sjeng_06", "tage64"), ("no_such_bench", "tage64"),
                 ("also_missing", "tage64")]
        path, rows = record_journal(tmp_path, cells=cells, jobs=1)
        assert [row["ok"] for row in rows] == [True, False, False]
        report = build_sweep_report(path)
        assert not report["ok"]
        assert report["sweep"]["cells_failed"] == 2
        [group] = report["failures"]
        assert group["type"] == "UnknownComponentError"
        assert group["count"] == 2
        assert group["cells"] == ["no_such_bench/tage64",
                                  "also_missing/tage64"]
        assert any("::error title=Failed sweep cells::" in line
                   for line in github_annotations(report))

    def test_incomplete_journal_fails_the_report(self, tmp_path):
        path, _rows = record_journal(tmp_path)
        lines = open(path).read().splitlines(keepends=True)
        open(path, "w").write("".join(lines[:-1]))  # drop sweep_finished
        report = build_sweep_report(path)
        assert not report["ok"]
        assert not report["sweep"]["complete"]
        assert report["sweep"]["wall_seconds"] is None
        assert "INCOMPLETE" in format_sweep_report(report)
        assert any("::error title=Incomplete sweep::" in line
                   for line in github_annotations(report))


class TestPhases:
    def test_exclusive_split_lists_timing_without_nested_phases(self):
        phases = exclusive_phases({"setup_seconds": 0.5,
                                   "emulation_seconds": 1.0,
                                   "dce_seconds": 0.5,
                                   "timing_seconds": 4.0})
        assert phases == {"setup": 0.5, "emulation": 1.0, "dce": 0.5,
                          "timing_self": 2.5}
        assert exclusive_phases(None) == {}

    def test_report_sums_phases_and_names_dominant_ones(self, tmp_path):
        path, rows = record_journal(tmp_path)
        report = build_sweep_report(path)
        phases = report["phases"]
        assert set(phases) == {"setup", "emulation", "timing_self", "dce"}
        assert all(seconds > 0 for seconds in phases.values())
        assert len(report["slowest_cells"]) == len(rows)
        for cell in report["slowest_cells"]:
            assert cell["dominant_phase"] in phases
            assert cell["phases"][cell["dominant_phase"]] == \
                max(cell["phases"].values())
        finished = [e for e in read_journal(path)["events"]
                    if e["event"] == "cell_finished"]
        for event in finished:
            assert sum(exclusive_phases(event["phase_seconds"]).values()) \
                <= sum(event["phase_seconds"].values())
        line = [line for line in format_sweep_report(report).splitlines()
                if "phases :" in line]
        assert len(line) == 1 and "timing_self" in line[0]


class TestWatch:
    def test_snapshot_of_a_finished_journal(self, tmp_path):
        path, rows = record_journal(tmp_path)
        snapshot = journal_snapshot(path)
        assert snapshot["done"] == len(rows)
        assert snapshot["failed"] == 0
        assert snapshot["complete"]
        assert snapshot["next_cell"] is None
        assert format_watch_line(snapshot).endswith("| finished")

    def test_snapshot_of_a_growing_journal(self, tmp_path):
        path, _rows = record_journal(tmp_path, jobs=1)
        events = [json.loads(line) for line in open(path)]
        landed = [e for e in events
                  if e["event"] in ("cell_started", "cell_finished")]
        # keep sweep_started + the first cell only: a sweep in flight
        with open(path, "w") as handle:
            for event in [events[0]] + landed[:2]:
                handle.write(json.dumps(event) + "\n")
        snapshot = journal_snapshot(path)
        assert snapshot["done"] == 1
        assert not snapshot["complete"]
        assert snapshot["next_cell"] == "/".join(CELLS[1])
        line = format_watch_line(snapshot)
        assert "sweep 1/4 cells" in line and not line.endswith("finished")
