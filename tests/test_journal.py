"""Sweep flight recorder: journals, live progress, failure tolerance."""

import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.config import RunConfig
from repro.observe import manifest
from repro.observe.journal import (
    JOURNAL_SCHEMA,
    format_progress,
    read_journal,
)
from repro.session import Session, _worker_sessions
from repro.sim.bench import payload_digest

CELLS = [("sjeng_06", "tage64"), ("sjeng_06", "mini"),
         ("mcf_06", "tage64"), ("mcf_06", "mini")]


def quick_session() -> Session:
    return Session(RunConfig(instructions=800, warmup=400))


def events_of(path) -> list:
    return read_journal(str(path))["events"]


def kinds_of(path) -> list:
    return [event["event"] for event in events_of(path)]


class TestJournalRoundtrip:
    def test_serial_sweep_produces_a_complete_journal(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        rows = quick_session().run_cells(CELLS, jobs=1, journal=str(path))
        journal = read_journal(str(path))
        assert journal["schema"] == JOURNAL_SCHEMA
        assert journal["complete"] and not journal["truncated"]
        assert journal["malformed_lines"] == 0
        kinds = [event["event"] for event in journal["events"]]
        assert kinds[0] == "sweep_started"
        assert kinds[-1] == "sweep_finished"
        assert kinds.count("cell_finished") == len(rows)
        assert kinds.count("worker_started") == 1  # serial: one process
        assert "worker_exited" not in kinds

    def test_sweep_started_carries_manifest_and_plan(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        quick_session().run_cells(CELLS, jobs=1, journal=str(path))
        started = events_of(path)[0]
        assert started["schema"] == JOURNAL_SCHEMA
        assert started["manifest"]["config"]["instructions"] == 800
        assert started["cells"] == [list(cell) for cell in CELLS]
        assert started["total_cells"] == len(CELLS)
        assert started["sweep_id"]
        assert "profile" not in started

    def test_jobs_is_the_resolved_request_in_both_events(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        quick_session().run_cells(CELLS[:1], jobs=3, journal=str(path))
        events = events_of(path)
        (built,) = [e for e in events if e["event"] == "units_built"]
        assert events[0]["jobs"] == built["jobs"] == 3

    def test_phase_seconds_only_for_executed_cells(self, tmp_path):
        session = quick_session()
        paths = [tmp_path / f"sweep{step}.jsonl" for step in (0, 1)]
        for path in paths:  # the second sweep hits the result cache
            session.run_cells(CELLS[:2], jobs=1, journal=str(path))
        executed, cached = ([e for e in events_of(path)
                             if e["event"] == "cell_finished"]
                            for path in paths)
        assert all(e["phase_seconds"]["timing_seconds"] > 0
                   for e in executed)
        assert executed[1]["phase_seconds"]["dce_seconds"] > 0  # mini
        assert all(e["result_cache_hit"] and "phase_seconds" not in e
                   for e in cached)

    def test_cell_digests_match_the_returned_rows(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        rows = quick_session().run_cells(CELLS, jobs=1, journal=str(path))
        finished = [event for event in events_of(path)
                    if event["event"] == "cell_finished"]
        assert [event["payload_sha256"] for event in finished] == \
            [payload_digest(row["payload"]) for row in rows]
        assert [event["mpki"] for event in finished] == \
            [row["payload"]["mpki"] for row in rows]

    def test_parallel_journal_is_deterministically_merged(self, tmp_path):
        serial_path = tmp_path / "serial.jsonl"
        parallel_path = tmp_path / "parallel.jsonl"
        quick_session().run_cells(CELLS, jobs=1, journal=str(serial_path))
        quick_session().run_cells(CELLS, jobs=2, journal=str(parallel_path))

        def cell_facts(path):
            return [(e["index"], e["benchmark"], e["variant"],
                     e["payload_sha256"])
                    for e in events_of(path)
                    if e["event"] == "cell_finished"]

        # same cells, same order, same digests for any job count
        assert cell_facts(serial_path) == cell_facts(parallel_path)
        parallel = read_journal(str(parallel_path))
        assert parallel["complete"]
        pids = {event["pid"] for event in parallel["events"]
                if event["event"] == "worker_started"}
        assert len(pids) == 2

    def test_worker_streams_have_contiguous_seq(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        quick_session().run_cells(CELLS, jobs=2, journal=str(path))
        streams = {}
        for event in events_of(path):
            streams.setdefault(event["stream"], []).append(event["seq"])
        for stream, seqs in streams.items():
            assert seqs == list(range(len(seqs))), stream

    def test_one_pid_only_worker_started_per_pool_worker(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        quick_session().run_cells(CELLS, jobs=2, journal=str(path))
        started = [event for event in events_of(path)
                   if event["event"] == "worker_started"]
        assert len({event["pid"] for event in started}) == len(started) == 2
        for event in started:
            assert set(event) == {"event", "stream", "seq", "t", "pid"}
            assert event["pid"] != os.getpid()
            assert event["stream"] == f"worker-{event['pid']}"

    def test_pool_workers_build_no_manifest(self, tmp_path, monkeypatch):
        # only the parent stamps a journaled sweep with a run manifest;
        # a pool worker that builds one fails its unit and aborts the sweep
        parent = os.getpid()
        git_revision = manifest.git_revision

        def parent_only(*args, **kwargs):
            if os.getpid() != parent:
                raise RuntimeError("a pool worker built a run manifest")
            return git_revision(*args, **kwargs)

        monkeypatch.setattr(manifest, "git_revision", parent_only)
        path = tmp_path / "sweep.jsonl"
        rows = quick_session().run_cells(CELLS, jobs=2, journal=str(path))
        serial = quick_session().run_cells(CELLS, jobs=1)
        assert [payload_digest(row["payload"]) for row in rows] == \
            [payload_digest(row["payload"]) for row in serial]
        journal = read_journal(str(path))
        assert journal["complete"]
        assert journal["events"][0]["executor"] == "pool"

    def test_spawn_fallback_journal(self, tmp_path, monkeypatch):
        import multiprocessing
        get_context = multiprocessing.get_context

        def without_fork(method=None):
            if method == "fork":
                raise ValueError("cannot find context for 'fork'")
            return get_context(method)

        monkeypatch.setattr(multiprocessing, "get_context", without_fork)
        path = tmp_path / "sweep.jsonl"
        cells = CELLS[:2]
        rows = quick_session().run_cells(cells, jobs=2, journal=str(path))
        serial = quick_session().run_cells(cells, jobs=1)
        assert [payload_digest(row["payload"]) for row in rows] == \
            [payload_digest(row["payload"]) for row in serial]
        journal = read_journal(str(path))
        assert journal["complete"]
        assert journal["events"][0]["start_method"] == "spawn"
        finished = [event for event in journal["events"]
                    if event["event"] == "cell_finished"]
        assert [event["payload_sha256"] for event in finished] == \
            [payload_digest(row["payload"]) for row in rows]


class TestFailureTolerance:
    def test_raising_cell_does_not_abort_the_sweep(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        cells = [("sjeng_06", "tage64"), ("no_such_bench", "tage64"),
                 ("mcf_06", "tage64")]
        rows = quick_session().run_cells(cells, jobs=1, journal=str(path))
        assert [row["ok"] for row in rows] == [True, False, True]
        error = rows[1]["error"]
        assert error["type"] == "UnknownComponentError"
        assert "no_such_bench" in error["message"]
        assert "Traceback" in error["traceback"]
        assert rows[1]["payload"] is None
        kinds = kinds_of(path)
        assert kinds.count("cell_failed") == 1
        assert kinds.count("cell_finished") == 2
        assert kinds[-1] == "sweep_finished"
        finished = events_of(path)[-1]
        assert finished["cells_failed"] == 1 and not finished["ok"]

    def test_raising_cell_in_a_worker_process(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        cells = [("sjeng_06", "tage64"), ("sjeng_06", "no_such_variant")]
        rows = quick_session().run_cells(cells, jobs=2, journal=str(path))
        assert [row["ok"] for row in rows] == [True, False]
        failed = [event for event in events_of(path)
                  if event["event"] == "cell_failed"]
        assert failed[0]["error"]["type"] == "UnknownComponentError"

    def test_failures_are_non_fatal_without_a_journal(self):
        rows = quick_session().run_cells(
            [("sjeng_06", "tage64"), ("no_such_bench", "tage64")], jobs=1)
        assert [row["ok"] for row in rows] == [True, False]


class TestTruncationTolerance:
    def test_truncated_journal_reads_as_incomplete(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        quick_session().run_cells(CELLS, jobs=1, journal=str(path))
        lines = path.read_text().splitlines(keepends=True)
        # drop sweep_finished and tear the final line mid-JSON, as a
        # SIGKILLed writer would
        torn = "".join(lines[:-2]) + lines[-2][:20]
        path.write_text(torn)
        journal = read_journal(str(path))
        assert not journal["complete"]
        assert journal["truncated"]
        assert journal["malformed_lines"] == 1
        assert journal["events"][0]["event"] == "sweep_started"

    def test_killed_sweep_leaves_a_parseable_journal(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        script = textwrap.dedent(f"""
            import os, sys
            from repro.config import RunConfig
            from repro.session import Session
            session = Session(RunConfig(instructions=800, warmup=400))
            cells = [("sjeng_06", "tage64")] * 50
            def stall(snapshot):
                print("ROW", flush=True)
            session.run_cells(cells, jobs=1, cache=False,
                              journal={str(path)!r}, progress=stall)
        """)
        import repro
        src = os.path.dirname(os.path.dirname(repro.__file__))
        process = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": src})
        try:
            # wait until at least one row landed, then kill -9
            assert process.stdout.readline().strip() == "ROW"
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
        journal = read_journal(str(path))
        assert not journal["complete"]
        assert journal["truncated"]
        assert journal["events"][0]["event"] == "sweep_started"
        assert "cell_finished" in [e["event"] for e in journal["events"]]

    def test_non_journal_file_is_rejected(self, tmp_path):
        path = tmp_path / "nope.jsonl"
        path.write_text('{"hello": "world"}\n')
        with pytest.raises(ValueError, match="not a repro-journal-v1"):
            read_journal(str(path))
        path.write_text("")
        with pytest.raises(ValueError):
            read_journal(str(path))


class TestProgress:
    def test_progress_callback_sees_every_row(self):
        snapshots = []
        rows = quick_session().run_cells(CELLS, jobs=1,
                                         progress=snapshots.append)
        assert len(snapshots) == len(rows)
        assert snapshots[-1]["done"] == len(CELLS)
        assert snapshots[-1]["failed"] == 0
        assert snapshots[0]["next_cell"] == "/".join(CELLS[1])
        assert snapshots[-1]["next_cell"] is None
        assert snapshots[-1]["last_cell"] == "/".join(CELLS[-1])
        # ETA only exists while cells remain
        assert snapshots[0]["eta_seconds"] is not None

    def test_progress_only_run_writes_no_file(self, tmp_path):
        quick_session().run_cells(CELLS[:1], jobs=1,
                                  progress=lambda snapshot: None)
        assert list(tmp_path.iterdir()) == []

    def test_format_progress_line(self):
        line = format_progress({
            "done": 3, "failed": 1, "total": 8,
            "elapsed_seconds": 2.0, "eta_seconds": 2.0,
            "trace_cache_hit_rate": 0.5,
            "last_cell": "sjeng_06/mini", "next_cell": "mcf_06/tage64"})
        assert "sweep 4/8 cells (1 FAILED)" in line
        assert "trace-hit 50%" in line
        assert "ETA 2.0s" in line
        assert "waiting on mcf_06/tage64" in line

    def test_format_progress_finished_shows_last_cell(self):
        line = format_progress({
            "done": 2, "failed": 0, "total": 2,
            "elapsed_seconds": 1.0, "eta_seconds": None,
            "trace_cache_hit_rate": 1.0,
            "last_cell": "mcf_06/mini", "next_cell": None})
        assert "last mcf_06/mini" in line
        assert "waiting" not in line


class TestWorkerSessionHousekeeping:
    def test_parallel_sweeps_do_not_leak_published_sessions(self):
        session = quick_session()
        baseline = len(_worker_sessions)
        for _ in range(3):
            session.run_cells(CELLS[:2], jobs=2)
        assert len(_worker_sessions) == baseline

    def test_publication_is_cleaned_up_even_on_failure(self):
        session = quick_session()
        baseline = len(_worker_sessions)
        rows = session.run_cells([("no_such_bench", "tage64")] * 2, jobs=2)
        assert not any(row["ok"] for row in rows)
        assert len(_worker_sessions) == baseline
