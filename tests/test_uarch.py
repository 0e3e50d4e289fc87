"""Tests for the out-of-order core timing model."""

import hashlib

import pytest

from repro.emulator.machine import Machine
from repro.isa.program import ProgramBuilder
from repro.predictors import BimodalPredictor, tage_scl_64kb
from repro.uarch.config import CoreConfig
from repro.uarch.core import CoreModel, RunaheadHooks
from repro.uarch.lsq import StoreForwarder
from repro.uarch.resources import FuTracker, RingTracker


def simulate(build, max_instructions=20_000, predictor=None, config=None,
             runahead=None, warmup=0):
    b = ProgramBuilder()
    build(b)
    machine = Machine(b.build())
    core = CoreModel(config=config, predictor=predictor, runahead=runahead)
    stats = core.run(machine.stream(max_instructions), warmup=warmup)
    return core, stats


def straightline_program(b, count=200):
    x = b.reg("x")
    b.movi(x, 0)
    b.label("top")
    for _ in range(count):
        b.addi(x, x, 1)
    b.jmp("top")


def dependent_chain_program(b, count=200):
    x = b.reg("x")
    b.movi(x, 0)
    b.label("top")
    for _ in range(count):
        b.muli(x, x, 3)  # serial dependence through x
    b.jmp("top")


class TestResources:
    def test_fu_tracker_serializes_when_full(self):
        alus = FuTracker(2)
        assert alus.acquire(5) == 5
        assert alus.acquire(5) == 5
        assert alus.acquire(5) == 6

    def test_fu_tracker_requires_units(self):
        with pytest.raises(ValueError):
            FuTracker(0)

    def test_ring_tracker_blocks_on_oldest(self):
        ring = RingTracker(2)
        ring.allocate(100)
        ring.allocate(200)
        assert ring.earliest_free(50) == 100  # waits for slot 0
        ring.allocate(300)
        assert ring.earliest_free(150) == 200

    def test_ring_tracker_free_when_released(self):
        ring = RingTracker(2)
        ring.allocate(10)
        assert ring.earliest_free(50) == 50

    def test_store_forwarder(self):
        forwarder = StoreForwarder(capacity=2)
        forwarder.record_store(100, data_ready_cycle=10)
        assert forwarder.try_forward(100, issue_cycle=20) == 21
        assert forwarder.try_forward(100, issue_cycle=5) == 11  # waits
        assert forwarder.try_forward(999, issue_cycle=5) == -1

    def test_store_forwarder_capacity(self):
        forwarder = StoreForwarder(capacity=1)
        forwarder.record_store(1, 10)
        forwarder.record_store(2, 10)
        assert forwarder.try_forward(1, 50) == -1  # evicted


class TestIpcBehaviour:
    def test_independent_ops_superscalar(self):
        """Many independent adds should retire close to width per cycle."""
        def build(b):
            regs = b.regs("a", "c", "d", "e")
            for r in regs:
                b.movi(r, 0)
            b.label("top")
            for _ in range(50):
                for r in regs:
                    b.addi(r, r, 1)
            b.jmp("top")
        _, stats = simulate(build, max_instructions=16_000, warmup=8000)
        assert stats.ipc > 2.0

    def test_serial_chain_is_slower(self):
        _, fast = simulate(straightline_program, max_instructions=16_000,
                           warmup=8000)
        _, slow = simulate(dependent_chain_program, max_instructions=16_000,
                           warmup=8000)
        assert slow.ipc < fast.ipc

    def test_cache_misses_hurt(self):
        def pointer_chase(b):
            # ring of pointers with a large stride so every load misses L1
            n = 4096
            stride = 997  # coprime with n, touches many lines
            values = [0] * n
            for i in range(n):
                values[i] = (i + stride) % n
            base = b.data("ring", values)
            ptr, addr = b.regs("ptr", "addr")
            b.movi(addr, base)
            b.movi(ptr, 0)
            b.label("top")
            # ptr = ring[ptr] repeatedly: serial pointer chase
            for _ in range(16):
                b.ld(ptr, base=addr, index=ptr, scale=8)
            b.jmp("top")
        _, chase = simulate(pointer_chase, max_instructions=12_000,
                            warmup=6000)
        _, fast = simulate(straightline_program, max_instructions=12_000,
                           warmup=6000)
        assert chase.ipc < fast.ipc / 2

    def test_mispredicts_hurt_ipc(self):
        def random_branches(b):
            import numpy as np
            rng = np.random.default_rng(2)
            base = b.data("bits", list(rng.integers(0, 2, 4096)))
            i, v, addr = b.regs("i", "v", "addr")
            b.movi(addr, base)
            b.movi(i, 0)
            b.label("top")
            b.ld(v, base=addr, index=i)
            b.cmpi(v, 1)
            b.br("eq", "skip")
            b.addi(v, v, 1)
            b.label("skip")
            b.addi(i, i, 1)
            b.andi(i, i, 4095)
            b.jmp("top")
        predictor = BimodalPredictor()
        _, stats = simulate(random_branches, max_instructions=10_000,
                            predictor=predictor)
        assert stats.mpki > 20
        # compare against an oracle front-end (predictor=None → always right)
        _, oracle = simulate(random_branches, max_instructions=10_000)
        assert oracle.ipc > stats.ipc * 1.2

    def test_predictable_loop_low_mpki(self):
        def loop(b):
            i, acc = b.regs("i", "acc")
            b.movi(acc, 0)
            b.label("outer")
            b.movi(i, 0)
            b.label("inner")
            b.addi(acc, acc, 1)
            b.addi(i, i, 1)
            b.cmpi(i, 100)
            b.br("lt", "inner")
            b.jmp("outer")
        _, stats = simulate(loop, max_instructions=20_000,
                            predictor=tage_scl_64kb(), warmup=5000)
        assert stats.mpki < 1.5


class TestStats:
    def test_counts_loads_and_stores(self):
        def build(b):
            buf = b.zeros("buf", 8)
            addr, v = b.regs("addr", "v")
            b.movi(addr, buf)
            b.label("top")
            b.st(v, base=addr)
            b.ld(v, base=addr)
            b.jmp("top")
        _, stats = simulate(build, max_instructions=3000)
        assert stats.loads > 900 and stats.stores > 900

    def test_branch_counts_per_pc(self):
        def build(b):
            i = b.reg("i")
            b.movi(i, 0)
            b.label("top")
            b.addi(i, i, 1)
            b.andi(i, i, 7)
            b.cmpi(i, 0)
            b.br("ne", "top")
            b.jmp("top")
        _, stats = simulate(build, max_instructions=5000,
                            predictor=BimodalPredictor())
        assert len(stats.branch_counts) == 1
        (pc, count), = stats.branch_counts.items()
        assert count > 500

    def test_hardest_branches_ranking(self):
        from repro.uarch.stats import CoreStats
        stats = CoreStats()
        stats.branch_mispredicts[0x10] = 5
        stats.branch_mispredicts[0x20] = 50
        stats.branch_mispredicts[0x30] = 1
        assert stats.hardest_branches(2) == [0x20, 0x10]

    def test_warmup_excluded(self):
        _, stats = simulate(straightline_program, max_instructions=10_000,
                            warmup=5000)
        assert stats.instructions == 5000

    def test_summary_is_readable(self):
        _, stats = simulate(straightline_program, max_instructions=2000)
        assert "IPC=" in stats.summary()


class TestRunaheadHookWiring:
    def test_hooks_called_in_order(self):
        events = []

        class Recorder(RunaheadHooks):
            def fetch_prediction(self, pc, fetch_cycle, tage_pred):
                events.append(("fetch", pc))
                return tage_pred, "tage"

            def on_branch_resolved(self, record, resolve_cycle, mispredicted,
                                   regs, wrong_path_budget):
                events.append(("resolve", record.pc))

            def on_retire(self, record, retire_cycle, mispredicted, regs):
                events.append(("retire", record.pc))

            def end_region(self, cycle):
                events.append(("end", cycle))

        def build(b):
            i = b.reg("i")
            b.movi(i, 0)
            b.label("top")
            b.addi(i, i, 1)
            b.cmpi(i, 3)
            b.br("lt", "top")
            b.halt()

        simulate(build, predictor=BimodalPredictor(), runahead=Recorder())
        kinds = [kind for kind, _ in events]
        assert kinds.count("fetch") == 3       # three branch instances
        assert kinds.count("resolve") == 3
        assert kinds[-1] == "end"
        # every uop retires
        assert kinds.count("retire") == 1 + 3 * 3

    def test_dce_override_counts(self):
        class ForceDce(RunaheadHooks):
            def fetch_prediction(self, pc, fetch_cycle, tage_pred):
                return True, "dce"

        def build(b):
            i = b.reg("i")
            b.movi(i, 0)
            b.label("top")
            b.addi(i, i, 1)
            b.cmpi(i, 1 << 40)
            b.br("lt", "top")
            b.halt()

        _, stats = simulate(build, max_instructions=4000,
                            predictor=BimodalPredictor(), runahead=ForceDce())
        assert stats.dce_predictions_used == stats.cond_branches
        assert stats.mispredicts == 0  # the forced prediction is correct here

    def test_retired_regs_track_architecture(self):
        captured = []

        class Capture(RunaheadHooks):
            def on_retire(self, record, retire_cycle, mispredicted, regs):
                captured.append(list(regs[:2]))

        def build(b):
            x, y = b.regs("x", "y")
            b.movi(x, 7)
            b.movi(y, 9)
            b.add(x, x, y)
            b.halt()

        simulate(build, runahead=Capture())
        assert captured[-1][0] == 16


def every_kind_program(b):
    """A loop that commits every uop kind the core times differently."""
    big = b.zeros("big", 8192)  # 64 KB: twice the L1D
    buf = b.zeros("buf", 8)
    x, i, v, w, t, q, d, big_base, buf_base = b.regs(
        "x", "i", "v", "w", "t", "q", "d", "big_base", "buf_base")
    b.movi(big_base, big)
    b.movi(buf_base, buf)
    b.movi(x, 1)
    b.movi(i, 0)
    b.movi(d, 3)
    b.label("top")
    b.muli(x, x, 1103515245)  # LCG step
    b.addi(x, x, 12345)
    b.andi(x, x, 0x7FFFFFFF)
    b.shri(t, x, 8)
    b.andi(t, t, 8191)
    b.ld(v, base=big_base, index=t)  # random word of 64 KB: L1D misses
    b.andi(q, i, 7)
    b.st(x, base=buf_base, index=q)
    b.ld(w, base=buf_base, index=q)  # forwarded from the store above
    b.div(w, w, d)
    b.shri(t, x, 16)
    b.andi(t, t, 1)
    b.cmp(t, i)
    b.cmpi(t, 0)
    b.br("eq", "skip")  # a random bit: both ways, mispredicted
    b.mul(v, v, w)
    b.label("skip")
    b.addi(i, i, 1)
    b.jmp("top")


class TestGoldenTiming:
    """Per-uop retire timing of every committed uop kind, pinned.

    The expected values are a recorded reference, not derived from the
    model: any drift in fetch, dispatch, issue, completion or retire
    timing of any kind moves them.  A small ROB and RS make both dispatch
    stalls occur.
    """

    RETIRED_SHA256 = (
        "e7c761b26d6d06192d99cbd6368283b60a5fe6c55d207dc01b0f3c79b3b57b6b")
    AGGREGATES = {"cycles": 7653, "mispredicts": 115, "cond_branches": 228,
                  "loads": 456, "stores": 228, "rob_stalls": 1741,
                  "rs_stalls": 99, "l1d_hits": 243, "l1d_misses": 213}

    class Recorder(RunaheadHooks):
        def __init__(self):
            self.retired = []

        def on_retire(self, record, retire_cycle, mispredicted, regs):
            self.retired.append((record.seq, retire_cycle, mispredicted))

    def run(self, runahead):
        core, stats = simulate(
            every_kind_program, max_instructions=4000,
            predictor=BimodalPredictor(),
            config=CoreConfig(rob_size=64, rs_size=32), runahead=runahead)
        l1d = core.hierarchy.l1d.stats
        return {"cycles": stats.cycles, "mispredicts": stats.mispredicts,
                "cond_branches": stats.cond_branches,
                "loads": stats.loads, "stores": stats.stores,
                "rob_stalls": core.rob.stall_events,
                "rs_stalls": core.rs.stall_events,
                "l1d_hits": l1d.hits, "l1d_misses": l1d.misses}

    def test_per_uop_retire_timing(self):
        recorder = self.Recorder()
        aggregates = self.run(recorder)
        assert len(recorder.retired) == 4000
        digest = hashlib.sha256(repr(recorder.retired).encode()).hexdigest()
        assert digest == self.RETIRED_SHA256
        assert aggregates == self.AGGREGATES

    def test_default_hooks_time_identically(self):
        # the default hooks are elided from the hot path; they must not
        # change a single cycle
        assert self.run(None) == self.run(self.Recorder()) \
            == self.AGGREGATES


class TestWarmupEdgeCases:
    """Short-stream warmup semantics (see CoreModel.run docstring)."""

    def test_stream_shorter_than_warmup_reports_whole_run(self):
        _, stats = simulate(straightline_program, max_instructions=800,
                            warmup=5000)
        assert stats.warmup_truncated
        assert stats.instructions == 800
        assert stats.cycles >= 1

    def test_stream_exactly_warmup_long_is_truncated(self):
        """A region exactly ``warmup`` long has no measured instructions;
        the whole run must be reported instead of zeroed counters."""
        _, stats = simulate(straightline_program, max_instructions=5000,
                            warmup=5000)
        assert stats.warmup_truncated
        assert stats.instructions == 5000
        assert stats.ipc > 0

    def test_one_post_warmup_record_resets_stats(self):
        _, stats = simulate(straightline_program, max_instructions=5001,
                            warmup=5000)
        assert not stats.warmup_truncated
        assert stats.instructions == 1

    def test_zero_warmup_never_truncates(self):
        _, stats = simulate(straightline_program, max_instructions=300,
                            warmup=0)
        assert not stats.warmup_truncated
        assert stats.instructions == 300

    def test_empty_stream_with_warmup(self):
        core = CoreModel(predictor=BimodalPredictor())
        stats = core.run(iter(()), warmup=100)
        assert stats.warmup_truncated
        assert stats.instructions == 0
        assert stats.cycles == 1
