"""Tests for the disk-persistent trace cache (``REPRO_TRACE_CACHE_DIR``).

On-disk entries must survive process boundaries conceptually — keyed by
program *content*, not identity — and any form of file damage (truncation,
garbage, version skew) must be a clean counted miss, never a crash.
"""

import json

import pytest

from repro.config import RunConfig, current_config
from repro.core import config as br_config
from repro.emulator.machine import Machine, execute_uop
from repro.isa.program import ProgramBuilder
from repro.session import Session
from repro.sim.bench import payload_digest
from repro.sim.simulator import simulate
from repro.sim.trace_cache import (
    FORMAT_VERSION,
    TraceCache,
    program_fingerprint,
)
from repro.telemetry import StatRegistry
from repro.workloads import suite


def store_loop_program():
    b = ProgramBuilder(name="store-loop")
    base = b.data("arr", [0] * 8)
    i, v, ptr = b.regs("i", "v", "ptr")
    b.movi(ptr, base)
    b.movi(i, 0)
    b.movi(v, 1)
    b.label("top")
    b.muli(v, v, 3)
    b.st(v, ptr, index=i, scale=1, disp=0)
    b.addi(i, i, 1)
    b.andi(i, i, 7)
    b.jmp("top")
    return b.build()


def record(cache, program, total):
    machine = Machine(program)
    for _ in cache.record(machine, 0, total, machine.stream(total)):
        pass


def stripped(result):
    payload = json.loads(result.to_json())
    payload["stats"].pop("host", None)
    return payload


class TestFingerprint:
    def test_identical_builds_fingerprint_equal(self):
        assert program_fingerprint(store_loop_program()) == \
            program_fingerprint(store_loop_program())

    def test_fingerprint_is_memoized(self):
        program = store_loop_program()
        first = program_fingerprint(program)
        program.name = "renamed"  # memo wins: content hashed only once
        assert program_fingerprint(program) is first

    def test_different_programs_differ(self):
        assert program_fingerprint(store_loop_program()) != \
            program_fingerprint(suite.load("sjeng_06"))

    @staticmethod
    def data_program(values):
        b = ProgramBuilder(name="data")
        b.data("arr", values)
        b.halt()
        return b.build()

    def test_one_memory_word_changes_the_fingerprint(self):
        words = list(range(100))
        changed = list(words)
        changed[57] += 1
        assert program_fingerprint(self.data_program(words)) != \
            program_fingerprint(self.data_program(changed))

    def test_memory_insertion_order_does_not_matter(self):
        forward, backward = self.data_program([3, 1, 4, 1, 5]), \
            self.data_program([3, 1, 4, 1, 5])
        backward.initial_memory = dict(
            reversed(list(backward.initial_memory.items())))
        assert program_fingerprint(forward) == program_fingerprint(backward)

    def test_words_beyond_int64_do_not_raise(self):
        # a value of 2**63 is the word the machine holds as -2**63
        high = program_fingerprint(self.data_program([1, 2 ** 63]))
        assert high == program_fingerprint(self.data_program([1, -2 ** 63]))
        assert high != program_fingerprint(self.data_program([1, 2 ** 62]))
        # an address outside int64 still fingerprints, by its repr
        far = self.data_program([1, 2])
        far.initial_memory[2 ** 64] = 5
        assert program_fingerprint(far) != \
            program_fingerprint(self.data_program([1, 2]))


class TestDiskRoundTrip:
    def test_fresh_cache_warm_starts_from_disk(self, tmp_path):
        program = store_loop_program()
        writer = TraceCache(disk_dir=str(tmp_path))
        record(writer, program, 40)
        assert writer.spills == 1
        assert len(list(tmp_path.glob("*.trace"))) == 1

        reader = TraceCache(disk_dir=str(tmp_path))
        replay = reader.replay(program, 0, 40)
        assert replay is not None
        assert reader.disk_hits == 1
        assert reader.hits == 1
        assert reader.misses == 0
        # the loaded entry is now memory-resident: no second disk read
        assert reader.replay(program, 0, 40) is not None
        assert reader.disk_hits == 1

    def test_rebuilt_program_object_hits_by_content(self, tmp_path):
        writer = TraceCache(disk_dir=str(tmp_path))
        record(writer, store_loop_program(), 40)
        reader = TraceCache(disk_dir=str(tmp_path))
        # a different Program object with identical content (the spawn-start
        # worker case: every process rebuilds its own Program)
        assert reader.replay(store_loop_program(), 0, 40) is not None

    def test_replayed_simulation_bit_identical(self, tmp_path):
        program = suite.load("sjeng_06")
        fresh = stripped(simulate(program, instructions=800, warmup=400))
        writer = TraceCache(disk_dir=str(tmp_path))
        recorded = stripped(simulate(program, instructions=800, warmup=400,
                                     trace_cache=writer))
        reader = TraceCache(disk_dir=str(tmp_path))
        replayed = stripped(simulate(program, instructions=800, warmup=400,
                                     trace_cache=reader))
        assert reader.disk_hits == 1
        assert recorded == fresh
        assert replayed == fresh

    def test_spilled_region_runs_compiled_closures(self, tmp_path,
                                                   monkeypatch):
        # a process replaying a spill never builds a Machine for the
        # program: the load binds the uops' closures, and Branch
        # Runahead's wrong-path walks run those, never execute_uop
        program = suite.load("mcf_06")

        def run(trace_cache):
            return simulate(program, instructions=3_000, warmup=1_500,
                            br_config=br_config.mini(),
                            trace_cache=trace_cache)

        live = run(TraceCache(disk_dir=str(tmp_path)))
        for op in program.uops:
            op.execute = None

        def refuse(op, regs, memory):
            raise AssertionError("execute_uop ran")

        monkeypatch.setattr(execute_uop, "__code__", refuse.__code__)
        reader = TraceCache(disk_dir=str(tmp_path))
        replayed = run(reader)
        assert reader.disk_hits == 1
        assert payload_digest(replayed.to_dict()) == \
            payload_digest(live.to_dict())

    def test_env_var_activates_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path))
        cache = Session(current_config()).trace_cache
        assert cache.disk_dir == str(tmp_path)
        record(cache, store_loop_program(), 20)
        assert cache.spills == 1

    def test_explicit_session_ignores_env_dir(self, tmp_path, monkeypatch):
        # an explicit session's config is all it reads: the exported
        # variable must not turn on spills behind its back
        monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path))
        session = Session(RunConfig(instructions=500, warmup=200))
        session.run("sjeng_06", "tage64")
        assert session.trace_cache.disk_dir is None
        assert list(tmp_path.iterdir()) == []

    def test_no_dir_means_no_files(self, tmp_path):
        cache = TraceCache()
        assert cache.disk_dir is None
        record(cache, store_loop_program(), 20)
        assert cache.spills == 0
        assert list(tmp_path.iterdir()) == []

    def test_respill_skipped_when_file_exists(self, tmp_path):
        program = store_loop_program()
        first = TraceCache(disk_dir=str(tmp_path))
        record(first, program, 40)
        second = TraceCache(disk_dir=str(tmp_path))
        record(second, program, 40)
        assert second.spills == 0  # found the existing file

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = TraceCache(disk_dir=str(tmp_path))
        record(cache, store_loop_program(), 40)
        assert [p.suffix for p in tmp_path.iterdir()] == [".trace"]


class TestCorruptionHandling:
    def _spilled_path(self, tmp_path, program, total=40):
        cache = TraceCache(disk_dir=str(tmp_path))
        record(cache, program, total)
        (path,) = tmp_path.glob("*.trace")
        return path

    @pytest.mark.parametrize("damage", [
        lambda blob: blob[: len(blob) // 2],         # truncated payload
        lambda blob: b"",                             # empty file
        lambda blob: b"garbage" * 10,                 # wrong magic
        lambda blob: blob[:4] + (FORMAT_VERSION + 1).to_bytes(2, "little")
        + blob[6:],                                   # version skew
        # header is 38 bytes, so this flips the first payload byte:
        # the sha256 digest check must catch it
        lambda blob: blob[:38] + bytes([blob[38] ^ 0xFF]) + blob[39:],
    ])
    def test_damaged_file_is_clean_miss(self, tmp_path, damage):
        program = store_loop_program()
        path = self._spilled_path(tmp_path, program)
        path.write_bytes(damage(path.read_bytes()))
        reader = TraceCache(disk_dir=str(tmp_path))
        assert reader.replay(program, 0, 40) is None
        assert reader.corrupt_entries == 1
        assert reader.misses == 1
        assert not path.exists()  # offender deleted so the next run respills

    def test_missing_file_counts_disk_miss_not_corrupt(self, tmp_path):
        reader = TraceCache(disk_dir=str(tmp_path))
        assert reader.replay(store_loop_program(), 0, 40) is None
        assert reader.disk_misses == 1
        assert reader.corrupt_entries == 0

    def test_unwritable_dir_counts_spill_error(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        cache = TraceCache(disk_dir=str(blocked))
        record(cache, store_loop_program(), 20)
        assert cache.spills == 0
        assert cache.spill_errors == 1

    def test_stats_carry_disk_counters(self, tmp_path):
        cache = TraceCache(disk_dir=str(tmp_path))
        record(cache, store_loop_program(), 20)
        registry = StatRegistry()
        cache.register_into(registry.scope("host.trace_cache"))
        stats = registry.to_flat_dict()
        assert stats["host.trace_cache.spills"] == 1
        assert {f"host.trace_cache.{name}" for name in (
            "disk_hits", "disk_misses", "spill_errors",
            "corrupt_entries")} <= set(stats)
