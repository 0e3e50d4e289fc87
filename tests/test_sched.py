"""Tests for the sweep scheduler (``repro.sched``).

Covers benchmark-aligned dispatch units, pool sweeps matching serial ones
(with replays on their benchmark's recording worker), store-backed sweep
resume (only cells with no landed result execute; resumed payloads stay
bit-identical to an uninterrupted run, also from records in the older
layout that carried a stat-registry copy), and the ``repro sweep
report`` / ``resume`` exit-code contract.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro import config as repro_config
from repro.cli import main as cli_main
from repro.config import RunConfig
from repro.observe.journal import read_journal
from repro.sched import ResultStore, build_units, cell_key
from repro.session import Session
from repro.sim.bench import payload_digest, strip_host

REGION = dict(instructions=800, warmup=400)

CELLS = [("sjeng_06", "bimodal"), ("sjeng_06", "gshare"),
         ("mcf_06", "bimodal"), ("mcf_06", "gshare")]


def session(**overrides):
    return Session(repro_config.current_config().replace(
        instructions=REGION["instructions"], warmup=REGION["warmup"],
        **overrides))


def host_stripped_stats(rows):
    """Each row's stat tree without the host-timing scope."""
    return [strip_host(row["payload"])["stats"] for row in rows]


class TestBuildUnits:
    def test_one_unit_per_benchmark_in_plan_order(self):
        benchmarks = ["a", "a", "a", "b", "b", "b"]
        assert build_units(benchmarks, range(6), 2) == \
            [[0, 1, 2], [3, 4, 5]]

    def test_interleaved_plan_groups_by_benchmark(self):
        # plan [(a,x),(b,x),(a,y),(b,y)]: each worker records its
        # benchmark's region once and replays it for the second cell
        assert build_units(["a", "b", "a", "b"], range(4), 2) == \
            [[0, 2], [1, 3]]

    def test_large_benchmark_splits_jobs_scaled(self):
        units = build_units(["a"] * 10, range(10), 4)
        assert units == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]

    def test_resumed_positions_are_left_out(self):
        # position 0 resumed from the store: never dispatched
        assert build_units(["a", "a", "b", "b"], [1, 2, 3], 2) == \
            [[1], [2, 3]]

    def test_fused_cells_stay_in_one_unit(self):
        # a benchmark's mpki-mode cells replay as one batch: splitting
        # them would record the region once per worker
        assert build_units(["a"] * 4, range(4), 2, {0, 1, 2, 3}) == \
            [[0, 1, 2, 3]]
        # an all-full-timing benchmark still splits
        assert build_units(["a"] * 4, range(4), 2) == [[0, 1], [2, 3]]
        # full-timing cells split around the fused piece, which counts
        # as one piece and lands whole
        assert build_units(["a"] * 6, range(6), 2, {1, 3}) == \
            [[0, 1, 2, 3], [4, 5]]


class TestSchedulerJournal:
    def test_units_built_event_records_structure(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        session().run_cells(CELLS, journal=path)
        events = read_journal(path)["events"]
        assert events[0]["executor"] == "inline"
        assert events[0]["start_method"] is None
        (built,) = [e for e in events if e["event"] == "units_built"]
        # serial: one unit per benchmark, in plan order
        assert built["units"] == 2
        assert built["executor"] == "inline"
        assert built["jobs"] == 1
        assert built["resumed_cells"] == []
        assert built["stream"] == "scheduler"

    @pytest.mark.parametrize("trace_dir", [False, True],
                             ids=["memory", "trace-dir"])
    def test_pool_matches_serial(self, tmp_path, trace_dir):
        overrides = {"trace_cache_dir": str(tmp_path / "traces")} \
            if trace_dir else {}
        path = str(tmp_path / "sweep.jsonl")
        sess = session(jobs=2, **overrides)
        rows = sess.run_cells(CELLS, jobs=2, journal=path)
        events = read_journal(path)["events"]
        assert events[0]["start_method"] is not None
        (built,) = [e for e in events if e["event"] == "units_built"]
        assert built["executor"] == "pool"
        assert built["units"] == 2
        assert sess.last_sweep["units"] == 2
        # each benchmark's first cell records the region; the rest
        # replay it from memory on the same worker
        first = {}
        for row in rows:
            recorder = first.setdefault(row["benchmark"], row)
            if recorder is not row:
                assert row["trace_cache_hit"]
                assert row["worker"]["pid"] == recorder["worker"]["pid"]
        reference = session().run_cells(CELLS)
        assert [payload_digest(row["payload"]) for row in rows] == \
            [payload_digest(row["payload"]) for row in reference]


    def test_one_benchmark_mpki_sweep_is_one_inline_unit(self, tmp_path):
        cells = [("sjeng_06", predictor)
                 for predictor in ("tage64", "gshare", "bimodal",
                                   "perceptron")]
        path = str(tmp_path / "sweep.jsonl")
        sess = session(jobs=2)
        rows = sess.run_cells(cells, outputs="mpki", jobs=2, journal=path)
        events = read_journal(path)["events"]
        (built,) = [e for e in events if e["event"] == "units_built"]
        assert (built["units"], built["executor"]) == (1, "inline")
        assert sess.last_sweep["executor"] == "inline"
        assert len([e for e in events
                    if e["event"] == "worker_started"]) == 1
        assert [row["cell"]["batch_size"] for row in rows] == [4] * 4
        serial = session().run_cells(cells, outputs="mpki", jobs=1)
        assert [payload_digest(row["payload"]) for row in rows] == \
            [payload_digest(row["payload"]) for row in serial]


class TestStoreResume:
    def test_full_resume_executes_nothing(self, tmp_path):
        store_dir = str(tmp_path / "store")
        first = session(result_store_dir=store_dir)
        rows = first.run_cells(CELLS)
        assert first.last_sweep["cells_scheduled"] == len(CELLS)

        resumed = session(result_store_dir=store_dir)
        again = resumed.run_cells(CELLS)
        assert resumed.last_sweep["cells_scheduled"] == 0
        assert resumed.last_sweep["cells_resumed_from_store"] == len(CELLS)
        assert all(row["result_store_hit"] for row in again)
        assert [payload_digest(row["payload"]) for row in again] == \
            [payload_digest(row["payload"]) for row in rows]

    @pytest.mark.parametrize("outputs", ["full", "mpki"])
    def test_partial_resume_executes_only_missing_cells(self, tmp_path,
                                                        outputs):
        # under "mpki" each benchmark's two cells replay as one fused
        # pair; its landed member still resumes alone
        store_dir = str(tmp_path / "store")
        config = repro_config.current_config().replace(
            result_store_dir=store_dir, **REGION)
        Session(config).run_cells(CELLS, outputs=outputs)
        # damage exactly one landed cell: blow its store entry away
        store = ResultStore(store_dir)
        key = cell_key("mcf_06", "gshare", REGION["instructions"],
                       REGION["warmup"], outputs)
        os.remove(store.path_for(key))

        resumed = Session(config)
        rows = resumed.run_cells(CELLS, outputs=outputs)
        assert resumed.last_sweep["cells_scheduled"] == 1
        assert resumed.last_sweep["cells_resumed_from_store"] == 3
        executed = [row for row in rows
                    if not row.get("result_store_hit")]
        assert [(r["benchmark"], r["variant"]) for r in executed] == \
            [("mcf_06", "gshare")]
        reference = session().run_cells(CELLS, outputs=outputs)
        assert [payload_digest(row["payload"]) for row in rows] == \
            [payload_digest(row["payload"]) for row in reference]

    def test_host_only_config_fields_still_resume(self, tmp_path):
        # the job count and the trace-cache directory never change a
        # payload, so a rerun that changes them resumes every landed cell
        store_dir = str(tmp_path / "store")
        rows = session(result_store_dir=store_dir).run_cells(CELLS)
        rerun = session(result_store_dir=store_dir, jobs=2,
                        trace_cache_dir=str(tmp_path / "traces"))
        again = rerun.run_cells(CELLS)
        assert rerun.last_sweep["cells_resumed_from_store"] == len(CELLS)
        assert rerun.last_sweep["cells_scheduled"] == 0
        assert [payload_digest(row["payload"]) for row in again] == \
            [payload_digest(row["payload"]) for row in rows]

    def test_resumed_registry_matches_uninterrupted_run(self, tmp_path):
        # each payload's stats section is its cell's full registry export
        store_dir = str(tmp_path / "store")
        reference_rows = session().run_cells(CELLS)
        session(result_store_dir=store_dir).run_cells(CELLS)
        resumed_rows = session(result_store_dir=store_dir).run_cells(CELLS)
        assert all(row["result_store_hit"] for row in resumed_rows)
        assert host_stripped_stats(resumed_rows) == \
            host_stripped_stats(reference_rows)

    def test_older_records_with_a_registry_copy_still_resume(self,
                                                              tmp_path):
        # stores written before rows became payload-only hold one more
        # record key, a kind-aware copy of the cell's stats; the probe
        # ignores it, so such a store resumes every cell unchanged
        store_dir = str(tmp_path / "store")
        reference_rows = session().run_cells(CELLS)
        store = ResultStore(store_dir)
        for row in reference_rows:
            key = cell_key(row["benchmark"], row["variant"],
                           REGION["instructions"], REGION["warmup"], "full")
            stats = row["payload"]["stats"]
            assert store.put(key, {
                "benchmark": row["benchmark"],
                "variant": row["variant"],
                "payload": row["payload"],
                "registry_state": {
                    "core.instructions":
                        ["counter", stats["core"]["instructions"]]}})
        resumed = session(result_store_dir=store_dir)
        rows = resumed.run_cells(CELLS)
        assert resumed.last_sweep["cells_resumed_from_store"] == len(CELLS)
        assert resumed.last_sweep["cells_scheduled"] == 0
        assert all(row["result_store_hit"] for row in rows)
        assert all("registry_state" not in row for row in rows)
        assert [payload_digest(row["payload"]) for row in rows] == \
            [payload_digest(row["payload"]) for row in reference_rows]

    def test_resumed_rows_flagged_in_journal(self, tmp_path):
        store_dir = str(tmp_path / "store")
        session(result_store_dir=store_dir).run_cells(CELLS)
        path = str(tmp_path / "resume.jsonl")
        session(result_store_dir=store_dir).run_cells(CELLS, journal=path)
        journal = read_journal(path)
        finished = [e for e in journal["events"]
                    if e["event"] == "cell_finished"]
        assert len(finished) == len(CELLS)
        assert all(e.get("result_store_hit") for e in finished)
        # their host timings belong to the run that stored them
        assert all("phase_seconds" not in e for e in finished)
        (built,) = [e for e in journal["events"]
                    if e["event"] == "units_built"]
        assert built["resumed_cells"] == [0, 1, 2, 3]
        assert built["units"] == 0
        assert journal["complete"]

    def test_store_hit_flag_absent_without_store(self, tmp_path):
        # store-less journals must stay byte-compatible: no new key
        path = str(tmp_path / "plain.jsonl")
        session().run_cells(CELLS, journal=path)
        finished = [e for e in read_journal(path)["events"]
                    if e["event"] == "cell_finished"]
        assert all("result_store_hit" not in e for e in finished)

    def test_cache_false_bypasses_store(self, tmp_path):
        store_dir = tmp_path / "store"
        session(result_store_dir=str(store_dir)).run_cells(
            CELLS, cache=False)
        assert not store_dir.exists()

    def test_batch_nodes_resume_whole_groups(self, tmp_path):
        store_dir = str(tmp_path / "store")
        first = session(result_store_dir=store_dir)
        rows = first.run_cells(CELLS, outputs="mpki")
        resumed = session(result_store_dir=store_dir)
        again = resumed.run_cells(CELLS, outputs="mpki")
        assert resumed.last_sweep["cells_resumed_from_store"] == len(CELLS)
        assert [payload_digest(row["payload"]) for row in again] == \
            [payload_digest(row["payload"]) for row in rows]


def _truncate_journal(path):
    """Drop ``sweep_finished`` — the journal a SIGKILLed sweep leaves."""
    lines = [line for line in open(path).read().splitlines()
             if '"sweep_finished"' not in line]
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


class TestSweepCliExitCodes:
    def test_report_exit_3_for_incomplete_resumable(self, tmp_path,
                                                    capsys):
        path = str(tmp_path / "sweep.jsonl")
        session(result_store_dir=str(tmp_path / "store")).run_cells(
            CELLS, journal=path)
        assert cli_main(["sweep", "report", path]) == 0
        _truncate_journal(path)
        assert cli_main(["sweep", "report", path]) == 3
        captured = capsys.readouterr()
        assert f"python -m repro sweep resume {path}" in captured.err

    def test_report_exit_1_for_failed_cells(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        session().run_cells([("sjeng_06", "bimodal"),
                             ("sjeng_06", "nonexistent-variant")],
                            journal=path)
        assert cli_main(["sweep", "report", path]) == 1

    def test_watch_once_exit_codes(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        session().run_cells(CELLS[:2], journal=path)
        assert cli_main(["sweep", "watch", path, "--once"]) == 0
        _truncate_journal(path)
        assert cli_main(["sweep", "watch", path, "--once"]) == 3

    def test_resume_cli_completes_interrupted_sweep(self, tmp_path,
                                                    capsys):
        store_dir = str(tmp_path / "store")
        config = repro_config.current_config().replace(
            result_store_dir=store_dir, **REGION)
        path = str(tmp_path / "sweep.jsonl")
        Session(config).run_cells(CELLS, journal=path)
        _truncate_journal(path)
        # lose one landed result too: resume must execute exactly it
        store = ResultStore(store_dir)
        key = cell_key("sjeng_06", "gshare", REGION["instructions"],
                       REGION["warmup"], "full")
        os.remove(store.path_for(key))

        assert cli_main(["sweep", "resume", path, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["cells_total"] == len(CELLS)
        assert summary["cells_resumed_from_store"] == 3
        assert summary["cells_executed"] == 1
        assert summary["cells_failed"] == 0
        reference = session().run_cells(CELLS)
        assert summary["digests"] == {
            f"{row['benchmark']}/{row['variant']}":
            payload_digest(row["payload"]) for row in reference}
        resumed = read_journal(f"{path}.resume")
        assert resumed["complete"]

    def test_resume_cli_completes_override_token_sweep(self, tmp_path,
                                                       capsys):
        # override-token cells journal, land in the store, run on a pool
        # and resume like any other cell
        cells = [(benchmark, variant)
                 for benchmark in ("sjeng_06", "mcf_06")
                 for variant in ("mini[hbt_entries=8]",
                                 "mini[dce_in_order=True]")]
        store_dir = str(tmp_path / "store")
        config = repro_config.current_config().replace(
            result_store_dir=store_dir, jobs=2, **REGION)
        path = str(tmp_path / "sweep.jsonl")
        rows = Session(config).run_cells(cells, journal=path)
        assert all(row["ok"] for row in rows)
        _truncate_journal(path)
        key = cell_key("mcf_06", "mini[dce_in_order=True]",
                       REGION["instructions"], REGION["warmup"], "full")
        os.remove(ResultStore(store_dir).path_for(key))

        assert cli_main(["sweep", "resume", path, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["cells_resumed_from_store"] == 3
        assert summary["cells_executed"] == 1
        assert summary["cells_failed"] == 0
        assert summary["digests"] == {
            f"{row['benchmark']}/{row['variant']}":
            payload_digest(row["payload"]) for row in rows}

    def test_resume_journal_with_retired_config_fields(self, tmp_path,
                                                        capsys):
        # a journal written while RunConfig still carried the two cache
        # bounds resumes: the manifest's unknown keys are dropped
        store_dir = str(tmp_path / "store")
        config = repro_config.current_config().replace(
            result_store_dir=store_dir, **REGION)
        path = str(tmp_path / "sweep.jsonl")
        rows = Session(config).run_cells(CELLS, journal=path)
        _truncate_journal(path)
        lines = open(path).read().splitlines()
        header = json.loads(lines[0])
        header["manifest"]["config"].update(result_cache_size=256,
                                            trace_cache_size=32)
        with open(path, "w") as handle:
            handle.write("\n".join([json.dumps(header)] + lines[1:])
                         + "\n")

        assert cli_main(["sweep", "resume", path, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["cells_resumed_from_store"] == len(CELLS)
        assert summary["cells_failed"] == 0
        assert summary["digests"] == {
            f"{row['benchmark']}/{row['variant']}":
            payload_digest(row["payload"]) for row in rows}

    def test_journal_with_worker_manifests_reports_and_resumes(
            self, tmp_path, capsys):
        # a journal written while pool workers shipped their own run
        # manifests (here one with another git sha and one with none) and
        # the start events carried manifest fingerprints reports ok and
        # resumes like any other
        store_dir = str(tmp_path / "store")
        config = repro_config.current_config().replace(
            result_store_dir=store_dir, jobs=2, **REGION)
        rows = Session(config).run_cells(CELLS)
        os.remove(ResultStore(store_dir).path_for(cell_key(
            "mcf_06", "gshare", REGION["instructions"], REGION["warmup"],
            "full")))
        manifest = {
            "schema": "repro-manifest-v1", "config": config.to_dict(),
            "config_fingerprint": config.fingerprint(),
            "provenance": dict.fromkeys(RunConfig.field_names(),
                                        "explicit"),
            "host": {"git_sha": "1" * 40, "python": "3.11.7",
                     "implementation": "CPython", "platform": "Linux",
                     "peak_rss_kb": 40000}}
        drifted = json.loads(json.dumps(manifest))
        drifted["host"]["git_sha"] = "2" * 40
        worker_manifests = {4101: drifted, 4102: None}
        events, seqs = [], {}

        def emit(kind, stream, **fields):
            seqs[stream] = seqs.get(stream, -1) + 1
            events.append({"event": kind, "stream": stream,
                           "seq": seqs[stream], "t": 1.0, **fields})

        emit("sweep_started", "sweep", schema="repro-journal-v1",
             sweep_id="0" * 32, manifest=manifest,
             manifest_fingerprint="a" * 64,
             cells=[list(cell) for cell in CELLS], total_cells=len(CELLS),
             jobs=2, outputs="full", start_method="fork", executor="pool")
        emit("units_built", "scheduler", units=2, executor="pool", jobs=2,
             resumed_cells=[])
        for index, row in enumerate(rows):
            pid = 4101 if row["benchmark"] == "sjeng_06" else 4102
            stream = f"worker-{pid}"
            if stream not in seqs:
                worker = worker_manifests[pid]
                emit("worker_started", stream, pid=pid, manifest=worker,
                     manifest_fingerprint="a" * 64 if worker else None)
            cell = dict(index=index, benchmark=row["benchmark"],
                        variant=row["variant"], pid=pid)
            emit("cell_started", stream, **cell)
            emit("cell_finished", stream, wall_seconds=0.1,
                 peak_rss_kb_delta=0, trace_cache_hit=index % 2 == 1,
                 result_cache_hit=False,
                 payload_sha256=payload_digest(row["payload"]),
                 mpki=row["payload"]["mpki"], ipc=row["payload"]["ipc"],
                 phase_seconds=row["payload"]["stats"]["host"]["phase"],
                 **cell)
        emit("sweep_finished", "sweep", cells_done=len(CELLS),
             cells_failed=0, total_cells=len(CELLS), wall_seconds=0.4,
             ok=True)
        path = str(tmp_path / "sweep.jsonl")
        with open(path, "w") as handle:
            handle.writelines(json.dumps(event, sort_keys=True) + "\n"
                              for event in events)

        assert cli_main(["sweep", "report", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"]
        assert [(info["pid"], info["cells"])
                for info in report["workers"]] == [(4101, 2), (4102, 2)]
        assert cli_main(["sweep", "resume", path, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["cells_resumed_from_store"] == 3
        assert summary["cells_executed"] == 1
        assert summary["digests"] == {
            f"{row['benchmark']}/{row['variant']}":
            payload_digest(row["payload"]) for row in rows}

    def test_resume_without_store_is_hard_error(self, tmp_path, capsys):
        path = str(tmp_path / "sweep.jsonl")
        session().run_cells(CELLS[:2], journal=path)
        _truncate_journal(path)
        assert cli_main(["sweep", "resume", path]) == 2
        assert "no result store" in capsys.readouterr().err

    def test_resume_rejects_out_of_range_jobs(self, tmp_path, capsys):
        # a usage error, as for compare: nothing runs, no resume journal
        path = str(tmp_path / "sweep.jsonl")
        session(result_store_dir=str(tmp_path / "store")).run_cells(
            CELLS[:2], journal=path)
        _truncate_journal(path)
        assert cli_main(["sweep", "resume", path, "--jobs", "0"]) == 2
        err = capsys.readouterr().err
        assert err == "repro: error: jobs must be >= 1, got 0\n"
        assert not os.path.exists(f"{path}.resume")

    def test_resume_rejects_non_journal(self, tmp_path, capsys):
        garbage = tmp_path / "garbage.jsonl"
        garbage.write_text("not a journal\n")
        assert cli_main(["sweep", "resume", str(garbage)]) == 2


class TestKillAndResume:
    """A real SIGKILL mid-sweep, resumed to bit-identical results."""

    BENCHMARKS = ["sjeng_06", "mcf_06", "mcf_17"]
    PREDICTORS = ["tage64", "gshare", "bimodal", "perceptron"]

    def test_sigkilled_sweep_resumes_only_remaining_cells(self, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(
                       [os.path.join(os.path.dirname(__file__), os.pardir,
                                     "src")] +
                       os.environ.get("PYTHONPATH", "").split(os.pathsep)),
                   REPRO_INSTRUCTIONS="6000", REPRO_WARMUP="3000",
                   REPRO_RESULT_STORE_DIR=str(tmp_path / "store"))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "compare",
             *self.BENCHMARKS, "--predictors", *self.PREDICTORS,
             "--journal", journal, "--json"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.time() + 120
            while time.time() < deadline:
                if os.path.exists(journal) and any(
                        '"cell_finished"' in line
                        for line in open(journal)):
                    break
                time.sleep(0.005)
        finally:
            process.send_signal(signal.SIGKILL)
            process.wait()
        journal_doc = read_journal(journal)
        assert not journal_doc["complete"]
        landed = len(list((tmp_path / "store").glob("*.result")))

        config = repro_config.current_config().replace(
            instructions=6000, warmup=3000,
            result_store_dir=str(tmp_path / "store"))
        cells = [tuple(cell) for cell in journal_doc["events"][0]["cells"]]
        resumed = Session(config)
        rows = resumed.run_cells(cells, outputs="mpki")
        # every landed cell resumes; only cells with no landed result
        # executed
        stats = resumed.last_sweep
        assert stats["cells_resumed_from_store"] + \
            stats["cells_scheduled"] == len(cells)
        assert stats["cells_resumed_from_store"] == landed

        reference = Session(config.replace(result_store_dir=None))
        reference_rows = reference.run_cells(cells, outputs="mpki")
        assert [payload_digest(row["payload"]) for row in rows] == \
            [payload_digest(row["payload"]) for row in reference_rows]
        assert host_stripped_stats(rows) == \
            host_stripped_stats(reference_rows)
