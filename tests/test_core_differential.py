"""The one-pass ``CoreModel.run`` against the per-uop reference core.

``tests/reference_core.py`` keeps the core as one ``_process`` call per
uop with every counter on its object, and with every retirement reaching
the hooks' ``on_retire``.  Hypothesis drives both over generated
programs — loads that miss, stores with forwarded reloads, hard and easy
branches, jumps, multiplies and divides — under small ROB/RS sizes and
warmups at, below and above the stream length, with three hook setups:
the default hooks, a recording ``RunaheadHooks`` subclass, and Branch
Runahead ``mini`` (which skips ``on_retire`` on idle retirements).  Every
per-uop retire cycle and mispredict flag, the statistics, the ROB/RS
stalls, the cache counters and the resource trackers' use counts must
agree.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import UARCH_CONFIGS
from repro.core.runahead import BranchRunahead
from repro.emulator.machine import Machine
from repro.isa.program import ProgramBuilder
from repro.memsys.hierarchy import MemoryHierarchy
from repro.predictors import BimodalPredictor
from repro.sim.bench import strip_host
from repro.sim.results import SimulationResult
from repro.telemetry import Telemetry, Tracer
from repro.uarch.config import CoreConfig
from repro.uarch.core import CoreModel, RunaheadHooks

from tests.reference_core import ReferenceCoreModel


def generated_program(seed: int, body: int):
    """A loop of ``body`` random blocks over an LCG-driven data set."""
    rng = random.Random(seed)
    b = ProgramBuilder(f"core-diff-{seed}")
    table = b.data("table", [rng.randrange(0, 1 << 20) for _ in range(4096)])
    buf = b.zeros("buf", 16)
    x, y, v, w, t, q, d, i, lcg, tbase, bbase = b.regs(
        "x", "y", "v", "w", "t", "q", "d", "i", "lcg", "tbase", "bbase")
    b.movi(tbase, table)
    b.movi(bbase, buf)
    b.movi(lcg, seed + 1)
    b.movi(x, rng.randrange(1, 1 << 16))
    b.movi(y, rng.randrange(1, 1 << 16))
    b.movi(d, rng.randrange(2, 9))
    b.movi(i, 0)
    b.label("top")
    b.muli(lcg, lcg, 1103515245)
    b.addi(lcg, lcg, 12345)
    b.andi(lcg, lcg, 0x7FFFFFFF)
    for block in range(body):
        kind = rng.choice(("load", "chase", "store", "hard", "easy", "mul",
                           "div", "jump", "alu"))
        skip = f"skip{block}"
        if kind == "load":  # a random word of a 32 KB table
            b.shri(t, lcg, rng.randrange(0, 12))
            b.andi(t, t, 4095)
            b.ld(v, base=tbase, index=t)
        elif kind == "chase":  # a branch on a loaded value
            b.andi(t, v, 4095)
            b.ld(v, base=tbase, index=t)
            b.andi(w, v, 1)
            b.cmpi(w, 0)
            b.br("eq", skip)
            b.addi(x, x, 1)
            b.label(skip)
        elif kind == "store":  # forwarded to the reload
            b.andi(q, i, 7)
            b.st(x, base=bbase, index=q)
            b.ld(w, base=bbase, index=q)
        elif kind == "hard":  # a random bit of the LCG
            b.shri(t, lcg, rng.randrange(0, 16))
            b.andi(t, t, 1)
            b.cmpi(t, 0)
            b.br(rng.choice(("eq", "ne")), skip)
            b.xori(y, y, 5)
            b.label(skip)
        elif kind == "easy":
            b.andi(t, i, 3)
            b.cmpi(t, 3)
            b.br("ne", skip)
            b.add(y, y, x)
            b.label(skip)
        elif kind == "mul":
            b.mul(x, x, y)
        elif kind == "div":
            b.div(w, x, d)
        elif kind == "jump":
            b.jmp(skip)
            b.addi(x, x, 7)
            b.label(skip)
        else:
            b.add(x, x, y)
            b.sub(y, y, v)
    b.addi(i, i, 1)
    b.jmp("top")
    return b.build()


class RecordingHooks(RunaheadHooks):
    """Records every hook call (a subclass keeps the default contract)."""

    def __init__(self):
        self.calls = []

    def fetch_prediction(self, pc, fetch_cycle, tage_pred):
        self.calls.append(("fetch", pc, fetch_cycle, tage_pred))
        # override now and then, so the core's DCE path runs
        if pc % 3 == 0:
            return not tage_pred, "dce"
        return tage_pred, "tage"

    def on_branch_resolved(self, record, resolve_cycle, mispredicted, regs,
                           wrong_path_budget):
        self.calls.append(("resolve", record.seq, resolve_cycle,
                           mispredicted, wrong_path_budget))

    def on_retire(self, record, retire_cycle, mispredicted, regs):
        self.calls.append(("retire", record.seq, retire_cycle, mispredicted,
                           tuple(regs)))

    def end_region(self, cycle):
        self.calls.append(("end", cycle))


def run_core(model, program, setup, length, warmup, config, traced):
    machine = Machine(program)
    tracer = Tracer(capacity=1 << 20) if traced else None
    telemetry = Telemetry(tracer=tracer)
    hierarchy = MemoryHierarchy(tracer=telemetry.tracer)
    predictor = BimodalPredictor(size_log2=8)
    core = model(config=config, hierarchy=hierarchy, predictor=predictor,
                 tracer=telemetry.tracer)
    hooks = None
    if setup == "recording":
        hooks = core.runahead = RecordingHooks()
    elif setup == "mini":
        br_config = UARCH_CONFIGS.get("mini")()
        hooks = core.runahead = BranchRunahead(
            br_config, program, machine.memory, hierarchy,
            core.dcache_ports,
            core_alus=core.alus if br_config.share_core_alus else None,
            retire_width=config.retire_width, tracer=telemetry.tracer)
    stats = core.run(machine.stream(length), warmup=warmup)
    result = SimulationResult(program.name, stats, hierarchy, predictor,
                              hooks if setup == "mini" else None, telemetry)
    l1i, l1d, l2 = (level.stats for level in
                    (hierarchy.l1i, hierarchy.l1d, hierarchy.l2))
    observed = {
        "payload": strip_host(result.to_dict()),
        "branch_counts": dict(stats.branch_counts),
        "branch_mispredicts": dict(stats.branch_mispredicts),
        "warmup_truncated": stats.warmup_truncated,
        "rob": (core.rob.stall_events, core.rob._next,
                list(core.rob._release)),
        "rs": (core.rs.stall_events, core.rs._next, list(core.rs._release)),
        "caches": [(s.hits, s.misses, s.writebacks, s.prefetch_fills,
                    s.prefetch_hits) for s in (l1i, l1d, l2)],
        "alus": (core.alus.total_acquired, dict(core.alus._usage)),
        "ports": (core.dcache_ports.core_uses, core.dcache_ports.dce_uses,
                  core.dcache_ports.dce_delay_cycles,
                  dict(core.dcache_ports._usage)),
        "forwards": core.forwarder.forwards,
        "retired_regs": list(core.retired_regs),
        "reg_ready": list(core._reg_ready),
        "pipeline": (core._next_fetch_cycle, core._fetch_slots_used,
                     core._last_retire_cycle, core._retired_in_cycle),
        "mshrs": (hierarchy.mshrs.merges, hierarchy.mshrs.capacity_stalls,
                  hierarchy.dce_mshrs.merges,
                  hierarchy.dce_mshrs.capacity_stalls),
    }
    if setup == "recording":
        observed["calls"] = hooks.calls
    if setup == "mini":
        observed["ceb"] = [record.seq for record in hooks.ceb._buffer]
        observed["watching"] = hooks.watching
    if traced:
        observed["events"] = [event.to_dict() for event in tracer.events()]
    return observed


@st.composite
def core_cases(draw):
    length = draw(st.integers(min_value=1, max_value=1500))
    warmup = draw(st.sampled_from(
        (0, length // 2, length - 1, length, length + 7)))
    config = CoreConfig(rob_size=draw(st.sampled_from((4, 16, 64, 256))),
                        rs_size=draw(st.sampled_from((2, 8, 32, 97))))
    return (draw(st.integers(min_value=0, max_value=1 << 16)),
            draw(st.integers(min_value=1, max_value=14)),
            length, max(0, warmup), config, draw(st.booleans()))


def assert_same(setup, case):
    seed, body, length, warmup, config, traced = case
    program = generated_program(seed, body)
    reference = run_core(ReferenceCoreModel, program, setup, length,
                         warmup, config, traced)
    fast = run_core(CoreModel, program, setup, length, warmup, config,
                    traced)
    assert fast.keys() == reference.keys()
    for key in reference:
        assert fast[key] == reference[key], key


class TestCoreDifferential:
    @settings(max_examples=40, deadline=None)
    @given(core_cases())
    def test_default_hooks(self, case):
        assert_same("default", case)

    @settings(max_examples=40, deadline=None)
    @given(core_cases())
    def test_recording_hooks(self, case):
        assert_same("recording", case)

    @settings(max_examples=25, deadline=None)
    @given(core_cases())
    def test_branch_runahead_mini(self, case):
        assert_same("mini", case)

    def test_mini_skips_idle_retirements(self):
        # the long stream gets past extraction and DCE launches, and the
        # idle-retire path must have carried most retirements
        program = generated_program(7, 12)
        config = CoreConfig()
        calls = []

        class Counting(BranchRunahead):
            def on_retire(self, record, retire_cycle, mispredicted, regs):
                calls.append(record.seq)
                super().on_retire(record, retire_cycle, mispredicted, regs)

        machine = Machine(program)
        hierarchy = MemoryHierarchy()
        core = CoreModel(config=config, hierarchy=hierarchy,
                         predictor=BimodalPredictor(size_log2=8))
        hooks = core.runahead = Counting(
            UARCH_CONFIGS.get("mini")(), program, machine.memory, hierarchy,
            core.dcache_ports, retire_width=config.retire_width)
        core.run(machine.stream(6000), warmup=1000)
        assert 0 < len(calls) < 6000
        assert len(hooks.ceb) == hooks.ceb._buffer.maxlen
        assert hooks.dce.stats.instances_executed > 0
        case = (7, 12, 6000, 1000, config, False)
        assert_same("mini", case)
