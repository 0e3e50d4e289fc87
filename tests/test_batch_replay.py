"""Differential tests for the batched multi-predictor replay path.

The contract (DESIGN.md §6a.4): for any set of predictor-only lanes,
:func:`repro.sim.predictor_replay.replay_mpki_batch` — and the Session
grouping built on it — must produce results **bit-identical** to scalar
:func:`~repro.sim.predictor_replay.replay_mpki` calls of the same cells:
same MPKI, same per-PC breakdowns, same warmup semantics, same payload
digests.  The scalar lockstep loop (``_lockstep``) is the reference the
numpy kernels are pinned against; both are pinned against the scalar
path here.
"""

import json
import time

import pytest

from repro import config as repro_config
from repro.cli import main as cli_main
from repro.config import RunConfig
from repro.isa.program import ProgramBuilder
from repro.observe.journal import read_journal
from repro.predictors.batched import (
    MIN_PERCEPTRON_LANES,
    _lockstep,
    replay_lanes,
)
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gshare import GSharePredictor
from repro.predictors.perceptron import PerceptronPredictor
from repro.predictors.registry import PREDICTORS, make_predictor
from repro.session import Session
from repro.sim.bench import batch_replay_predictors, payload_digest
from repro.sim.branch_events import (
    EVENT_FORMAT_VERSION,
    EVENT_MAGIC,
    BranchColumns,
    extract_columns,
    unpack_columns,
)
from repro.sim.predictor_replay import (
    load_branch_columns,
    replay_mpki,
    replay_mpki_batch,
)
from repro.sim.trace_cache import (
    TraceCache,
    program_fingerprint,
    read_framed,
)
from repro.workloads import suite

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
    """Lane set spanning every kernel family plus the lockstep fallback."""
    lanes = [lambda: BimodalPredictor(size_log2=4),
             lambda: BimodalPredictor(size_log2=8),
             lambda: BimodalPredictor(size_log2=6, counter_bits=3),
             lambda: GSharePredictor(size_log2=4, history_bits=3),
             lambda: GSharePredictor(size_log2=8, history_bits=8),
             lambda: GSharePredictor(size_log2=6, history_bits=12),
             lambda: make_predictor("tage64")]
    lanes += [lambda bits=bits: PerceptronPredictor(history_bits=bits)
              for bits in (8, 12, 16)][:MIN_PERCEPTRON_LANES]
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


class TestReplayLanesDifferential:
    def test_mixed_lanes_match_lockstep(self, backend):
        pcs, takens = synthetic_stream()
        factories = mixed_lane_factories()
        batch = replay_lanes([make() for make in factories],
                             pcs, takens, split=800)
        reference = _lockstep([make() for make in factories],
                              pcs, takens, split=800)
        assert batch == reference

    def test_trained_lane_falls_back_to_instance_state(self, backend):
        # a lane with prior history is not pristine: the batch must keep
        # driving the instance's own tables, bit-for-bit
        pcs, takens = synthetic_stream(events=1_000)
        trained, twin = BimodalPredictor(size_log2=6), \
            BimodalPredictor(size_log2=6)
        for predictor in (trained, twin):
            for pc in range(0, 256, 4):
                predictor.observe(pc, True)
        batch = replay_lanes([trained], pcs, takens, split=100)
        reference = _lockstep([twin], pcs, takens, split=100)
        assert batch == reference

    def test_subclass_falls_back_to_instance_behaviour(self, backend):
        class Contrarian(GSharePredictor):
            def predict(self, pc):
                return not super().predict(pc)

        pcs, takens = synthetic_stream(events=1_000)
        batch = replay_lanes(
            [Contrarian(size_log2=6, history_bits=6)], pcs, takens, 200)
        reference = _lockstep(
            [Contrarian(size_log2=6, history_bits=6)], pcs, takens, 200)
        assert batch == reference

    def test_equivalent_lanes_share_result_object(self):
        # two gshare geometries inducing the same event partition must be
        # deduped to one scan and hand back the same list object
        pcs = [0x400] * 600  # one static PC: partition is history-only
        takens = [(i * 7) & 1 for i in range(600)]
        lanes = [GSharePredictor(size_log2=10, history_bits=4),
                 GSharePredictor(size_log2=12, history_bits=4)]
        batch = replay_lanes(lanes, pcs, takens, split=100)
        assert batch[0] is batch[1]
        reference = _lockstep(
            [GSharePredictor(size_log2=10, history_bits=4),
             GSharePredictor(size_log2=12, history_bits=4)],
            pcs, takens, split=100)
        assert batch == reference

    def test_empty_stream(self, backend):
        assert replay_lanes([BimodalPredictor()], [], [], 0) == [[]]


class TestBatchIdentity:
    @pytest.mark.parametrize("name", sorted(PREDICTORS.names()))
    def test_every_registered_predictor(self, name, backend):
        program = suite.load("sjeng_06")
        scalar = replay_mpki(program, make_predictor(name),
                             trace_cache=TraceCache(), **REGION)
        batch, = replay_mpki_batch(program, [name],
                                   trace_cache=TraceCache(), **REGION)
        assert branch_fields(batch.core) == branch_fields(scalar.core)
        assert payload_digest(batch.to_dict()) == \
            payload_digest(scalar.to_dict())

    def test_bench_lane_set_matches_scalar(self, backend):
        program = suite.load("mcf_17")
        cache = TraceCache()
        scalars = [replay_mpki(program, predictor, trace_cache=cache,
                               **REGION)
                   for predictor in batch_replay_predictors()]
        batches = replay_mpki_batch(program, batch_replay_predictors(),
                                    trace_cache=cache, **REGION)
        assert len(batches) == len(scalars)
        for scalar, batch in zip(scalars, batches):
            assert payload_digest(batch.to_dict()) == \
                payload_digest(scalar.to_dict())

    def test_duplicate_lanes_dedupe_stat(self, backend):
        # equivalent lanes replay once in the kernels; the count is
        # reported under host.batch (host scope, so the digest the drift
        # gate compares stays identical to the scalar document)
        program = suite.load("sjeng_06")
        results = replay_mpki_batch(program, ["tage64", "tage64"],
                                    trace_cache=TraceCache(),
                                    min_lanes=1, **REGION)
        deduped = {result.to_dict()["stats"]["host"]["batch"]
                   ["lanes_deduped"] for result in results}
        assert deduped == {1}
        scalar = replay_mpki(program, make_predictor("tage64"),
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

    def test_string_lanes_resolve_via_registry(self, backend):
        program = suite.load("sjeng_06")
        by_name, by_instance = replay_mpki_batch(
            program, ["bimodal", BimodalPredictor()],
            trace_cache=TraceCache(), **REGION)
        assert payload_digest(by_name.to_dict()) == \
            payload_digest(by_instance.to_dict())


class TestWarmupBoundary:
    def batch_vs_scalar(self, program, warmup, instructions=10_000):
        scalar = replay_mpki(program, BimodalPredictor(size_log2=6),
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
        assert loaded.events() == columns.events()

    def test_events_view_memoized(self):
        _, columns = self.build_columns()
        assert columns.events() is columns.events()

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
        assert loaded.events() == first.events()

    def test_columns_memoized_across_lookups(self, tmp_path):
        program = suite.load("sjeng_06")
        cache = TraceCache(disk_dir=str(tmp_path))
        load_branch_columns(program, 0, 1_800, trace_cache=cache)
        reader = TraceCache(disk_dir=str(tmp_path))
        first = reader.branch_columns(program, 0, 1_800)
        second = reader.branch_columns(program, 0, 1_800)
        assert first is second  # memoized, not re-read from disk
        assert first.events() is second.events()
        assert reader.event_disk_hits == 1

    def test_entry_branch_events_memoized(self):
        program = suite.load("sjeng_06")
        cache = TraceCache()
        load_branch_columns(program, 0, 1_800, trace_cache=cache)
        entry = cache.lookup(program, 0, 1_800, count=False)
        assert entry.branch_columns.events() is \
            entry.branch_columns.events()

    def test_corrupt_sidecar_falls_back_to_trace_entry(self, tmp_path):
        program = suite.load("sjeng_06")
        writer = TraceCache(disk_dir=str(tmp_path))
        good = load_branch_columns(program, 0, 1_800, trace_cache=writer)
        sidecar, = tmp_path.glob("*.events")
        sidecar.write_bytes(b"RPBEgarbage")
        reader = TraceCache(disk_dir=str(tmp_path))
        loaded = load_branch_columns(program, 0, 1_800, trace_cache=reader)
        assert loaded.events() == good.events()
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
        # a fresh session per cell: no batch group, no shared result cache
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
