"""Tests for the shared committed-trace cache.

The load-bearing invariant: a replayed region must be indistinguishable
from live emulation to *every* consumer — same records, same mid-stream
memory state (Branch Runahead reads ``machine.memory`` between records),
same final payloads.  These tests pin it by comparing full
``SimulationResult.to_dict()`` documents with only the host wall-clock
section stripped.
"""

import json

import pytest

from repro.core import config as br_config
from repro.emulator.machine import Machine
from repro.isa.program import ProgramBuilder
from repro.session import Session
from repro.sim.simulator import simulate
from repro.sim.trace_cache import DEFAULT_CAPACITY, TraceCache
from repro.workloads import suite


def stripped(result):
    payload = json.loads(result.to_json())
    payload["stats"].pop("host", None)
    return payload


def store_loop_program():
    """A loop whose stores move memory every iteration."""
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


class TestReplayBitIdentical:
    @pytest.mark.parametrize("kwargs", [
        dict(),
        dict(br_config_name="mini"),
        dict(start_instruction=500),
        dict(br_config_name="big", start_instruction=500),
    ])
    def test_fresh_recorded_replayed_all_equal(self, kwargs):
        kwargs = dict(kwargs)
        name = kwargs.pop("br_config_name", None)
        program = suite.load("sjeng_06")

        def run(trace_cache):
            return simulate(
                program, instructions=1_500, warmup=700,
                br_config=getattr(br_config, name)() if name else None,
                trace_cache=trace_cache, **kwargs)

        fresh = stripped(run(None))
        cache = TraceCache()
        recorded = stripped(run(cache))   # miss: records
        replayed = stripped(run(cache))   # hit: replays
        assert cache.hits == 1
        assert cache.misses == 1
        assert recorded == fresh
        assert replayed == fresh

    def test_one_trace_serves_many_variants(self):
        """The committed stream is variant-independent: one entry, N hits."""
        program = suite.load("mcf_17")
        cache = TraceCache()
        results = []
        for config in (None, br_config.mini(), br_config.big()):
            results.append(stripped(simulate(
                program, instructions=1_000, warmup=500,
                br_config=config, trace_cache=cache)))
        assert len(cache) == 1
        assert cache.hits == 2
        baseline_no_cache = stripped(simulate(
            program, instructions=1_000, warmup=500))
        assert results[0] == baseline_no_cache


class TestReplayMemorySemantics:
    def test_replay_snapshots_pre_region_memory(self):
        """Replay starts from the region-entry image, not the final one."""
        program = store_loop_program()
        cache = TraceCache()
        live = Machine(program)
        wrapped = cache.record(live, 0, 50, live.stream(50))
        for _ in wrapped:
            pass
        replay = cache.replay(program, 0, 50)
        assert replay is not None
        # entry state: the array the live run mutated is back to zeros
        assert all(replay.memory.read(addr) == 0
                   for addr in program.initial_memory)

    def test_replay_memory_tracks_live_memory_per_record(self):
        """After k records, replayed memory == live memory after k records."""
        program = store_loop_program()
        cache = TraceCache()
        recorder = Machine(program)
        for _ in cache.record(recorder, 0, 40, recorder.stream(40)):
            pass
        live = Machine(program)
        live_stream = live.stream(40)
        replay = cache.replay(program, 0, 40)
        for live_record, replay_record in zip(live_stream, replay.stream(40)):
            assert replay_record is not live_record or True
            assert replay_record.seq == live_record.seq
            assert replay.memory._words == live.memory._words
            assert replay.pc == live.pc
            assert replay.seq == live.seq
        assert replay.regs == live.regs

    def test_replays_are_independent(self):
        """A half-consumed replay never leaks stores into the next one."""
        program = store_loop_program()
        cache = TraceCache()
        machine = Machine(program)
        for _ in cache.record(machine, 0, 40, machine.stream(40)):
            pass
        first = cache.replay(program, 0, 40)
        for _ in zip(range(20), first.stream(40)):
            pass
        second = cache.replay(program, 0, 40)
        assert all(second.memory.read(addr) == 0
                   for addr in program.initial_memory)


class TestReplayPhases:
    """A replay is a walk over recorded records, not emulation: it books
    no ``emulation`` phase, and its time is part of ``timing``."""

    @pytest.mark.parametrize("br", [None, "mini"])
    def test_only_the_recording_run_books_emulation(self, br):
        cache = TraceCache()
        program = suite.load("sjeng_06")
        phases = []
        for _ in range(2):
            result = simulate(program, instructions=600, warmup=300,
                              br_config=br, trace_cache=cache)
            phases.append(result.to_dict()["stats"]["host"]["phase"])
        recorded, replayed = phases
        assert recorded["emulation_seconds"] > 0.0
        assert "emulation_seconds" not in replayed
        assert replayed["timing_seconds"] > 0.0


class TestCacheMechanics:
    def _record(self, cache, program, total):
        machine = Machine(program)
        for _ in cache.record(machine, 0, total, machine.stream(total)):
            pass

    def test_lru_bound_and_eviction(self):
        cache = TraceCache(capacity=2)
        program = store_loop_program()
        for total in (10, 20, 30):
            self._record(cache, program, total)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.replay(program, 0, 10) is None   # evicted (oldest)
        assert cache.replay(program, 0, 30) is not None

    def test_replay_refreshes_lru_order(self):
        cache = TraceCache(capacity=2)
        program = store_loop_program()
        self._record(cache, program, 10)
        self._record(cache, program, 20)
        assert cache.replay(program, 0, 10) is not None  # now most recent
        self._record(cache, program, 30)                 # evicts total=20
        assert cache.replay(program, 0, 20) is None
        assert cache.replay(program, 0, 10) is not None

    def test_abandoned_stream_stores_nothing(self):
        cache = TraceCache()
        program = store_loop_program()
        machine = Machine(program)
        wrapped = cache.record(machine, 0, 40, machine.stream(40))
        next(wrapped)
        wrapped.close()
        assert len(cache) == 0

    def test_stale_id_reuse_is_rejected(self):
        """An entry keyed under a foreign program's id never replays."""
        cache = TraceCache()
        program = store_loop_program()
        self._record(cache, program, 10)
        other = store_loop_program()
        key, entry = next(iter(cache._entries.items()))
        del cache._entries[key]
        cache._entries[(id(other), 0, 10)] = entry  # forced id collision
        assert cache.replay(other, 0, 10) is None

    def test_fast_forward_refused(self):
        cache = TraceCache()
        program = store_loop_program()
        self._record(cache, program, 10)
        replay = cache.replay(program, 0, 10)
        with pytest.raises(RuntimeError):
            replay.fast_forward(5)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceCache(capacity=0)

    def test_capacity_ignores_the_environment(self, monkeypatch):
        # the capacity is a module constant: the retired REPRO_TRACE_CACHE
        # knob, left set in a shell, changes nothing
        monkeypatch.setenv("REPRO_TRACE_CACHE", "7")
        assert TraceCache().capacity == DEFAULT_CAPACITY
        assert Session().trace_cache.capacity == DEFAULT_CAPACITY
