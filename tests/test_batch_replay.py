"""Differential tests for the batched multi-predictor replay path.

The contract (DESIGN.md §6a.4): for any set of predictor-only lanes,
:func:`repro.sim.predictor_replay.replay_mpki_batch` — and the Session
grouping built on it — must produce results **bit-identical** to
:func:`scalar_replay`, the independent one-predictor predict/update loop
kept here as the reference: same MPKI, same per-PC breakdowns, same
warmup semantics, same payload digests.  The lockstep loop
(``_lockstep``) is the reference the TAGE kernel is pinned against; both
are pinned against the scalar loop here.
"""

import json
import time
from collections import Counter

import pytest

from repro import config as repro_config
from repro.cli import main as cli_main
from repro.config import RunConfig
from repro.isa.program import ProgramBuilder
from repro.observe.journal import read_journal
from repro.predictors import batched, tage_batch
from repro.predictors.batched import _lockstep, replay_lanes
from repro.predictors.base import AlwaysTakenPredictor
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gshare import GSharePredictor
from repro.predictors.perceptron import PerceptronPredictor
from repro.predictors.registry import PREDICTORS, make_predictor
from repro.predictors.tage import TagePredictor
from repro.session import Session
from repro.sim.bench import payload_digest
from repro.sim.branch_events import (
    EVENT_FORMAT_VERSION,
    EVENT_MAGIC,
    BranchColumns,
    extract_columns,
    unpack_columns,
)
from repro.sim.predictor_replay import (
    PredictorReplayResult,
    load_branch_columns,
    replay_mpki_batch,
)
from repro.sim.trace_cache import (
    TraceCache,
    program_fingerprint,
    read_framed,
)
from repro.telemetry import Telemetry
from repro.uarch.stats import CoreStats
from repro.workloads import suite
from tests.test_tage_batch_differential import tiny_cfg

REGION = dict(instructions=1_200, warmup=600)


@pytest.fixture(params=["numpy"])
def backend(request):
    """The vectorized batch path, the only one (tests keep its id)."""
    return request.param


def synthetic_stream(events=4_000, pcs=48, seed=0x2545F491):
    """A deterministic pseudo-random branch stream (LCG, no RNG imports)."""
    state = seed
    pc_column, taken_column = [], []
    for _ in range(events):
        state = (state * 6364136223846793005 + 1442695040888963407) \
            % (1 << 64)
        pc_column.append(0x400 + (state >> 33) % pcs * 4)
        taken_column.append((state >> 17) & 1)
    return pc_column, taken_column


def mixed_lane_factories():
    """Ten lanes of every non-kernel kind, replayed on one lockstep pass.

    Bimodal (2- and 3-bit), gshare and perceptron lanes have no kernel,
    and a lone TAGE lane is a geometry group below the kernel's cutover.
    """
    lanes = [lambda: BimodalPredictor(size_log2=4),
             lambda: BimodalPredictor(size_log2=8),
             lambda: BimodalPredictor(size_log2=6, counter_bits=3),
             lambda: GSharePredictor(size_log2=4, history_bits=3),
             lambda: GSharePredictor(size_log2=8, history_bits=8),
             lambda: GSharePredictor(size_log2=6, history_bits=12),
             lambda: make_predictor("tage64")]
    lanes += [lambda bits=bits: PerceptronPredictor(history_bits=bits)
              for bits in (8, 12, 16)]
    return lanes


def batch_replay_predictors():
    """Fresh instances of a 40-lane bimodal/gshare sweep."""
    lanes = [BimodalPredictor(size_log2=size) for size in (10, 12, 14, 16)]
    lanes.extend(GSharePredictor(size_log2=size, history_bits=history)
                 for size in (10, 12, 13, 14, 15, 16)
                 for history in (4, 6, 8, 10, 12, 16))
    return lanes


def halting_countdown(iterations=40):
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


def session(**overrides):
    return Session(repro_config.current_config().replace(
        instructions=REGION["instructions"], warmup=REGION["warmup"],
        **overrides))


def scalar_replay(program, predictor, instructions, warmup=0,
                  trace_cache=None):
    """The scalar reference: one predictor driven event by event.

    Mirrors ``CoreModel.run``'s measurement rules — events below the
    warmup boundary train only, counting starts at the record whose
    region index equals ``warmup``, and a stream that never crosses the
    boundary reports the whole run with ``warmup_truncated`` set.
    """
    if isinstance(predictor, str):
        predictor = make_predictor(predictor)
    columns = load_branch_columns(program, 0, instructions + warmup,
                                  trace_cache)
    warmed = warmup > 0 and columns.record_count > warmup
    boundary = warmup if warmed else 0
    measured, mispredicted = [], []
    for index, pc, taken in zip(columns.indices, columns.pcs,
                                map(bool, columns.takens)):
        prediction = predictor.observe(pc, taken)
        if index >= boundary:
            measured.append((pc, taken))
            if prediction != taken:
                mispredicted.append(pc)
    stats = CoreStats()
    stats.cond_branches = len(measured)
    stats.taken_branches = sum(taken for _, taken in measured)
    stats.mispredicts = stats.baseline_mispredicts = len(mispredicted)
    stats.branch_counts.update(Counter(pc for pc, _ in measured))
    stats.branch_mispredicts.update(Counter(mispredicted))
    stats.instructions = columns.record_count - boundary
    stats.warmup_truncated = warmup > 0 and not warmed
    return PredictorReplayResult(program.name, predictor, stats,
                                 Telemetry(), trace_cache=trace_cache)


def columns_of(columns):
    return (columns.indices, columns.pcs, columns.takens,
            columns.record_count)


class TestReplayLanesDifferential:
    def test_mixed_lanes_match_lockstep(self, backend):
        pcs, takens = synthetic_stream()
        factories = mixed_lane_factories()
        batch = replay_lanes([make() for make in factories],
                             pcs, takens, split=800)
        reference = _lockstep([make() for make in factories],
                              pcs, takens, split=800)
        assert batch == reference

    def test_trained_lane_falls_back_to_instance_state(self, backend,
                                                       monkeypatch):
        # a lane with prior history is not pristine: the kernel declines
        # it, and the batch keeps driving the instance's own tables
        monkeypatch.setattr(batched, "TAGE_MIN_LANES", 1)
        pcs, takens = synthetic_stream(events=1_000)
        trained, twin = TagePredictor(tiny_cfg()), TagePredictor(tiny_cfg())
        for predictor in (trained, twin):
            for pc in range(0, 256, 4):
                predictor.observe(pc, True)
        assert not tage_batch.supported(trained)
        batch = replay_lanes([trained], pcs, takens, split=100)
        reference = _lockstep([twin], pcs, takens, split=100)
        assert batch == reference

    def test_subclass_falls_back_to_instance_behaviour(self, backend,
                                                       monkeypatch):
        # the kernel takes exact types only: a subclass may override any
        # step, so it replays on lockstep through its own observe
        class Contrarian(TagePredictor):
            def predict(self, pc):
                return not super().predict(pc)

        monkeypatch.setattr(batched, "TAGE_MIN_LANES", 1)
        pcs, takens = synthetic_stream(events=1_000)
        batch = replay_lanes([Contrarian(tiny_cfg())], pcs, takens, 200)
        reference = _lockstep([Contrarian(tiny_cfg())], pcs, takens, 200)
        assert batch == reference

    def test_kernel_group_beside_lockstep_lanes(self):
        # eight distinct lanes of one TAGE geometry reach the kernel (the
        # reset period is in the dedupe key, not the group key); the
        # bimodal, gshare and perceptron lanes share one lockstep pass
        pcs, takens = synthetic_stream()

        def lanes():
            tages = [TagePredictor(tiny_cfg(
                useful_reset_period=64 * (lane + 1)))
                for lane in range(batched.TAGE_MIN_LANES)]
            return tages + [BimodalPredictor(size_log2=6),
                            GSharePredictor(size_log2=8, history_bits=8),
                            PerceptronPredictor(history_bits=12)]

        predictors = lanes()
        batch = replay_lanes(predictors, pcs, takens, split=800)
        assert batch == _lockstep(lanes(), pcs, takens, split=800)
        # the kernel keeps lane state in its own arrays: the TAGE
        # instances stay pristine
        assert [predictor._tick for predictor
                in predictors[:batched.TAGE_MIN_LANES]] == \
            [0] * batched.TAGE_MIN_LANES

    def test_empty_stream(self, backend):
        assert replay_lanes([BimodalPredictor()], [], [], 0) == [[]]


class TestBatchIdentity:
    @pytest.mark.parametrize("name", sorted(PREDICTORS.names()))
    def test_every_registered_predictor(self, name, backend):
        program = suite.load("sjeng_06")
        scalar = scalar_replay(program, make_predictor(name),
                               trace_cache=TraceCache(), **REGION)
        batch, = replay_mpki_batch(program, [name],
                                   trace_cache=TraceCache(), **REGION)
        assert branch_fields(batch.core) == branch_fields(scalar.core)
        assert payload_digest(batch.to_dict()) == \
            payload_digest(scalar.to_dict())

    @pytest.mark.parametrize("name", ["tage64", "perceptron"])
    def test_lone_lane_skips_kernel_set_up(self, name, monkeypatch):
        # a lone lane is below the cutover: it replays on lockstep without
        # gating for the TAGE kernel or copying the stream for it
        program = suite.load("mcf_17")
        scalar = scalar_replay(program, make_predictor(name),
                               trace_cache=TraceCache(), **REGION)

        def refuse(*args, **kwargs):
            raise AssertionError("a lone lane reached the TAGE kernel")

        monkeypatch.setattr(tage_batch, "supported", refuse)
        monkeypatch.setattr(tage_batch, "run_tage_lanes", refuse)
        batch, = replay_mpki_batch(program, [name],
                                   trace_cache=TraceCache(), **REGION)
        assert branch_fields(batch.core) == branch_fields(scalar.core)

    def test_registered_variants_skip_kernel_gating(self, monkeypatch):
        # a batch of every registered predictor is below the cutover: it
        # replays on lockstep without gating a lane for the TAGE kernel
        program = suite.load("mcf_17")
        names = sorted(PREDICTORS.names())
        scalars = [scalar_replay(program, name, trace_cache=TraceCache(),
                                 **REGION) for name in names]

        def refuse(*args, **kwargs):
            raise AssertionError("a small batch reached the TAGE kernel")

        monkeypatch.setattr(tage_batch, "supported", refuse)
        monkeypatch.setattr(tage_batch, "run_tage_lanes", refuse)
        batches = replay_mpki_batch(program, names,
                                    trace_cache=TraceCache(), **REGION)
        assert len(batches) == len(names) < batched.TAGE_MIN_LANES
        for scalar, batch in zip(scalars, batches):
            assert branch_fields(batch.core) == branch_fields(scalar.core)

    def test_bench_lane_set_matches_scalar(self, backend):
        program = suite.load("mcf_17")
        cache = TraceCache()
        scalars = [scalar_replay(program, predictor, trace_cache=cache,
                                 **REGION)
                   for predictor in batch_replay_predictors()]
        batches = replay_mpki_batch(program, batch_replay_predictors(),
                                    trace_cache=cache, **REGION)
        assert len(batches) == len(scalars)
        for scalar, batch in zip(scalars, batches):
            assert payload_digest(batch.to_dict()) == \
                payload_digest(scalar.to_dict())

    def test_duplicate_lanes_dedupe_stat(self, backend, monkeypatch):
        # equivalent lanes replay once in the kernel; the count is
        # reported under host.batch (host scope, so the digest the drift
        # gate compares stays identical to the scalar document)
        monkeypatch.setattr(batched, "TAGE_MIN_LANES", 1)
        program = suite.load("sjeng_06")
        results = replay_mpki_batch(program, ["tage64", "tage64"],
                                    trace_cache=TraceCache(), **REGION)
        deduped = {result.to_dict()["stats"]["host"]["batch"]
                   ["lanes_deduped"] for result in results}
        assert deduped == {1}
        scalar = scalar_replay(program, make_predictor("tage64"),
                               trace_cache=TraceCache(), **REGION)
        for result in results:
            assert payload_digest(result.to_dict()) == \
                payload_digest(scalar.to_dict())

    def test_lanes_split_the_shared_host_time(self, backend):
        # every lane books an even share of the one region load and the
        # one stream pass, so the lanes' phases sum to the call's time
        program = suite.load("mcf_17")
        tick = time.perf_counter()
        results = replay_mpki_batch(
            program, ["tage64", "gshare", "bimodal", "perceptron"],
            trace_cache=TraceCache(), **REGION)
        wall = time.perf_counter() - tick
        booked = sum(sum(result.to_dict()["stats"]["host"]["phase"]
                         .values()) for result in results)
        assert 0 < booked <= wall

    @pytest.mark.parametrize("case", ["mid_stream", "countdown"])
    def test_no_cache_matches_cached(self, case):
        # without a trace cache the records stream straight into the
        # extraction: the payloads match a cached call's, and none
        # reports a trace-cache scope
        if case == "mid_stream":
            program, start = suite.load("mcf_17"), 2_000
        else:
            program, start = halting_countdown(40), 0

        def replay(trace_cache):
            lanes = [AlwaysTakenPredictor(), BimodalPredictor(),
                     GSharePredictor(), make_predictor("tage64")]
            return [result.to_dict() for result in replay_mpki_batch(
                program, lanes, start_instruction=start,
                trace_cache=trace_cache, **REGION)]

        uncached = replay(None)
        assert [payload_digest(payload) for payload in uncached] == \
            [payload_digest(payload) for payload in replay(TraceCache())]
        assert not any("trace_cache" in payload["stats"]["host"]
                       for payload in uncached)

    def test_string_lanes_resolve_via_registry(self, backend):
        program = suite.load("sjeng_06")
        by_name, by_instance = replay_mpki_batch(
            program, ["bimodal", BimodalPredictor()],
            trace_cache=TraceCache(), **REGION)
        assert payload_digest(by_name.to_dict()) == \
            payload_digest(by_instance.to_dict())


class TestWarmupBoundary:
    def batch_vs_scalar(self, program, warmup, instructions=10_000):
        scalar = scalar_replay(program, BimodalPredictor(size_log2=6),
                               instructions=instructions, warmup=warmup,
                               trace_cache=TraceCache())
        batch, = replay_mpki_batch(program,
                                   [BimodalPredictor(size_log2=6)],
                                   instructions=instructions, warmup=warmup,
                                   trace_cache=TraceCache())
        assert branch_fields(batch.core) == branch_fields(scalar.core)
        return batch

    def test_stream_ends_exactly_at_boundary(self, backend):
        # countdown(40) commits exactly 121 records; warmup == stream
        # length means nothing is measured and the flag must be set
        program = halting_countdown(40)
        count = load_branch_columns(program, 0, 10_000).record_count
        batch = self.batch_vs_scalar(program, warmup=count)
        assert batch.core.warmup_truncated
        assert batch.core.instructions == count  # whole run reported

    def test_one_record_past_boundary_is_measured(self, backend):
        program = halting_countdown(40)
        count = load_branch_columns(program, 0, 10_000).record_count
        batch = self.batch_vs_scalar(program, warmup=count - 1)
        assert not batch.core.warmup_truncated
        assert batch.core.instructions == 1

    def test_boundary_on_a_branch_event(self, backend):
        # a branch sitting exactly at the warmup boundary is measured
        program = halting_countdown(40)
        columns = load_branch_columns(program, 0, 10_000)
        boundary = columns.indices[len(columns) // 2]
        batch = self.batch_vs_scalar(program, warmup=int(boundary))
        assert not batch.core.warmup_truncated

    def test_zero_warmup_measures_everything(self, backend):
        program = halting_countdown(40)
        columns = load_branch_columns(program, 0, 10_000)
        batch = self.batch_vs_scalar(program, warmup=0)
        assert batch.core.cond_branches == len(columns)
        assert not batch.core.warmup_truncated


class TestBranchEventsFormat:
    def build_columns(self):
        program = halting_countdown(25)
        return program, load_branch_columns(program, 0, 10_000)

    def spill(self, tmp_path, program, columns):
        TraceCache(disk_dir=str(tmp_path))._spill_events(
            program, 0, 10_000, columns)
        sidecar, = tmp_path.glob("*.events")
        return sidecar

    def test_round_trip(self, tmp_path):
        program, columns = self.build_columns()
        self.spill(tmp_path, program, columns)
        reader = TraceCache(disk_dir=str(tmp_path))
        loaded = reader._load_events(program, 0, 10_000)
        assert loaded.indices == columns.indices
        assert loaded.pcs == columns.pcs
        assert loaded.takens == columns.takens
        assert loaded.record_count == columns.record_count

    @pytest.mark.parametrize("damage", [
        "magic", "version", "payload", "truncate", "fingerprint", "taken"])
    def test_damage_raises_value_error(self, tmp_path, damage):
        import hashlib
        program, columns = self.build_columns()
        fingerprint = program_fingerprint(program)
        sidecar = self.spill(tmp_path, program, columns)
        blob = bytearray(sidecar.read_bytes())
        if damage == "magic":
            blob[0] ^= 0xFF
        elif damage == "version":
            blob[4] ^= 0xFF
        elif damage == "payload":
            blob[-1] ^= 0xFF
        elif damage == "truncate":
            blob = blob[:len(blob) - 3]
        else:
            # a foreign program's fingerprint, or a taken byte of 2,
            # re-signed so only the payload checks can reject it
            if damage == "fingerprint":
                blob[38:70] = bytes(32)
            else:
                blob[-1] = 2
            blob[6:38] = hashlib.sha256(blob[38:]).digest()
        with pytest.raises(ValueError):
            unpack_columns(read_framed(bytes(blob), EVENT_MAGIC,
                                       EVENT_FORMAT_VERSION), fingerprint)
        # the cache turns the same damage into a counted clean miss
        sidecar.write_bytes(bytes(blob))
        reader = TraceCache(disk_dir=str(tmp_path))
        assert reader._load_events(program, 0, 10_000) is None
        assert reader.corrupt_entries == 1
        assert not sidecar.exists()

    def test_write_failure_counts_spill_error(self, tmp_path):
        program, columns = self.build_columns()
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        cache = TraceCache(disk_dir=str(blocker / "cache"))
        cache._spill_events(program, 0, 10_000, columns)
        assert cache.spill_errors == 1
        assert cache.event_spills == 0

    def test_extract_columns_shape(self):
        _, columns = self.build_columns()
        rebuilt = extract_columns(iter([]), record_count=7)
        assert isinstance(rebuilt, BranchColumns)
        assert len(rebuilt) == 0 and rebuilt.record_count == 7
        assert len(columns.indices) == len(columns.pcs) \
            == len(columns.takens)


class TestEventSidecar:
    def test_spill_and_reload_without_pickle(self, tmp_path):
        program = suite.load("sjeng_06")
        writer = TraceCache(disk_dir=str(tmp_path))
        first = load_branch_columns(program, 0, 1_800, trace_cache=writer)
        assert writer.event_spills == 1
        assert list(tmp_path.glob("*.events"))
        # a fresh cache (new process, same disk dir) resolves the region
        # from the sidecar alone
        reader = TraceCache(disk_dir=str(tmp_path))
        loaded = load_branch_columns(program, 0, 1_800, trace_cache=reader)
        assert reader.event_disk_hits == 1
        assert reader.disk_hits == 0  # the pickle was never touched
        assert columns_of(loaded) == columns_of(first)

    def test_columns_memoized_across_lookups(self, tmp_path):
        program = suite.load("sjeng_06")
        cache = TraceCache(disk_dir=str(tmp_path))
        load_branch_columns(program, 0, 1_800, trace_cache=cache)
        reader = TraceCache(disk_dir=str(tmp_path))
        first = reader.branch_columns(program, 0, 1_800)
        second = reader.branch_columns(program, 0, 1_800)
        # a sidecar-only region is read from disk again on each lookup
        assert columns_of(first) == columns_of(second)
        assert reader.event_disk_hits == 2
        assert reader.disk_hits == 0 and len(reader) == 0

    def test_entry_branch_events_memoized(self):
        program = suite.load("sjeng_06")
        cache = TraceCache()
        columns = load_branch_columns(program, 0, 1_800, trace_cache=cache)
        entry = cache.lookup(program, 0, 1_800, count=False)
        assert entry.branch_columns is columns
        assert cache.branch_columns(program, 0, 1_800) is columns

    def test_corrupt_sidecar_falls_back_to_trace_entry(self, tmp_path):
        program = suite.load("sjeng_06")
        writer = TraceCache(disk_dir=str(tmp_path))
        good = load_branch_columns(program, 0, 1_800, trace_cache=writer)
        sidecar, = tmp_path.glob("*.events")
        sidecar.write_bytes(b"RPBEgarbage")
        reader = TraceCache(disk_dir=str(tmp_path))
        loaded = load_branch_columns(program, 0, 1_800, trace_cache=reader)
        assert columns_of(loaded) == columns_of(good)
        assert reader.event_disk_hits == 0
        assert reader.disk_hits == 1  # served by the full .trace entry


class TestSessionBatching:
    CELLS = [("sjeng_06", "bimodal"), ("sjeng_06", "gshare"),
             ("sjeng_06", "spec:tage64+none"), ("mcf_17", "bimodal"),
             ("mcf_17", "gshare")]

    def test_rows_identical_to_scalar_path(self):
        batched = session().run_cells(self.CELLS, outputs="mpki")
        assert [(row["benchmark"], row["variant"]) for row in batched] \
            == list(self.CELLS)
        # a fresh session per cell: a one-lane replay, no shared result
        # cache
        for row, (benchmark, variant) in zip(batched, self.CELLS):
            scalar = session().run(benchmark, variant, outputs="mpki")
            assert payload_digest(row["payload"]) \
                == payload_digest(scalar.to_dict())

    def test_batch_size_marker_and_shared_region(self):
        rows = session().run_cells(self.CELLS, outputs="mpki")
        assert all(row["cell"]["batch_size"] == 3 for row in rows[:3])
        assert all(row["cell"]["batch_size"] == 2 for row in rows[3:])

    def test_mixed_group_keeps_full_timing_cells_scalar(self):
        cells = [("sjeng_06", "bimodal"), ("sjeng_06", "mini"),
                 ("sjeng_06", "gshare")]
        rows = session().run_cells(cells, outputs="mpki")
        assert [row["variant"] for row in rows] == \
            ["bimodal", "mini", "gshare"]
        assert rows[1]["payload"]["branch_runahead"] is True
        assert "batch_size" not in rows[1]["cell"]

    def test_mixed_group_journals_in_index_order(self, tmp_path):
        # the fused pair lands before the full-timing cell between its
        # members, yet rows journal by index and progress always waits
        # on the head-of-line cell
        cells = [("sjeng_06", "bimodal"), ("sjeng_06", "mini"),
                 ("sjeng_06", "gshare")]
        path = str(tmp_path / "sweep.jsonl")
        snapshots = []
        session().run_cells(cells, outputs="mpki", journal=path,
                            progress=snapshots.append)
        finished = [event["index"] for event in read_journal(path)["events"]
                    if event["event"] == "cell_finished"]
        assert finished == [0, 1, 2]
        assert [snapshot["last_cell"] for snapshot in snapshots] == \
            ["/".join(cell) for cell in cells]
        assert [snapshot["next_cell"] for snapshot in snapshots] == \
            ["sjeng_06/mini", "sjeng_06/gshare", None]

    def test_batched_results_populate_scalar_cache(self):
        sess = session()
        sess.run_cells(self.CELLS, outputs="mpki")
        hits_before = sess.result_cache_hits
        sess.run("sjeng_06", "gshare", outputs="mpki")
        assert sess.result_cache_hits == hits_before + 1

    def test_parallel_jobs_match_serial(self):
        serial = session().run_cells(self.CELLS, outputs="mpki")
        parallel = session(jobs=2).run_cells(self.CELLS, outputs="mpki",
                                             jobs=2)
        for left, right in zip(serial, parallel):
            assert payload_digest(left["payload"]) \
                == payload_digest(right["payload"])

    def test_journal_records_one_row_per_cell(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        session().run_cells(self.CELLS, outputs="mpki", journal=path)
        journal = read_journal(path)
        finished = [event for event in journal["events"]
                    if event["event"] == "cell_finished"]
        assert len(finished) == len(self.CELLS)
        assert journal["complete"]


class TestComparePredictorsCli:
    def test_sweep_table_and_json(self, capsys):
        args = ["compare", "sjeng_06", "--predictors", "bimodal", "gshare",
                "--instructions", "1200", "--warmup", "600"]
        assert cli_main(args) == 0
        table = capsys.readouterr().out
        assert "bimodal" in table and "gshare" in table
        assert cli_main(args + ["--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["benchmark"] == "sjeng_06"
        assert set(document["mpki"]) == {"bimodal", "gshare"}
        scalar = Session(RunConfig(instructions=1_200, warmup=600)).run(
            "sjeng_06", "bimodal", outputs="mpki")
        assert document["mpki"]["bimodal"] == pytest.approx(
            scalar.core.mpki)
