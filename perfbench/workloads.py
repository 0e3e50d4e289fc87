"""The benchmark's three workloads.

Every workload is a closed loop with one client: the next operation is
submitted only after the previous one returned.  The workload seed picks
the inputs the simulator receives — the order in which each benchmark's
region starts (SimPoint-style ``start_instruction`` values from a fixed
set) are cycled through, and submission orders — and nothing else.  Each operation returns the payload digest of every
cell or lane it produced, under a key that names the inputs, so the
digests can be checked against ``digests.json`` (see README.md).
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config import RunConfig
from repro.observe.journal import read_journal
from repro.session import Session
from repro.sim import predictor_replay
from repro.sim.bench import payload_digest, tage_batch_predictors
from repro.sim.results import ipc_improvement, mpki_improvement
from repro.sim.variants import variant_kwargs
from repro.workloads import suite

from perfbench.tracing import Recorder

#: Figure 10 means for Big over 64KB TAGE-SC-L (paper, 17 benchmarks).
PAPER_BIG_MPKI_CUT = 47.5
PAPER_BIG_IPC_GAIN = 16.9

#: The six registered predictor-only variants.
PREDICTOR_VARIANTS = ("tage64", "tage80", "mtage", "bimodal", "gshare",
                      "perceptron")


@dataclass
class OpResult:
    """What one operation delivered."""

    wall: float
    #: Warmup + measured instructions of every delivered cell or lane.
    instructions: int
    #: ``(key, digest)`` per cell or lane; digest None when it failed.
    outputs: List[Tuple[str, Optional[str]]]
    #: key -> why the cell failed (raised, or ``ok=False``).
    errors: Dict[str, str]
    #: ``(key, payload)`` of cells computed by this operation.
    payloads: List[Tuple[str, dict]]
    #: resumable_sweep: wall minus summed cell compute / jobs.
    sched_overhead: float = 0.0


class Stopwatch:
    """Times an operation; inside a traced pass it is the root span."""

    def __init__(self, recorder: Optional[Recorder], name: str):
        self.recorder = recorder
        self.name = name
        self.wall = 0.0

    def __enter__(self):
        if self.recorder is not None:
            self._span = self.recorder.operation(self.name)
            self._span.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self._start
        if self.recorder is not None:
            self._span.__exit__(*exc)
        return False


def _stat(stats: dict, path: str) -> float:
    node = stats
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return 0.0
        node = node[part]
    return float(node) if isinstance(node, (int, float)) else 0.0


def note_payload(recorder: Recorder, payload: dict) -> None:
    """Count the simulated statistics the per-layer report needs."""
    stats = payload.get("stats") or {}
    for level in ("l1d", "l2"):
        misses = _stat(stats, f"memsys.{level}.misses")
        recorder.count(f"memsys.{level}.misses", misses)
        recorder.count(f"memsys.{level}.accesses",
                       misses + _stat(stats, f"memsys.{level}.hits"))
    recorder.count("uarch.cycles", _stat(stats, "core.cycles"))
    recorder.count("dce.busy_s", _stat(stats, "host.phase.dce_seconds"))
    recorder.count("dce.uops_executed", _stat(stats, "dce.uops_executed"))
    recorder.count("runahead.pred_correct",
                   _stat(stats, "runahead.pred.correct"))
    recorder.count("runahead.pred_total", sum(
        _stat(stats, f"runahead.pred.{kind}") for kind in
        ("inactive", "late", "throttled", "correct", "incorrect")))


class Plan:
    """Seeded stream of passes: each pass is every operation once.

    ``build(rng, index)`` returns the operations of pass ``index``.
    """

    def __init__(self, rng: random.Random, build):
        self.rng = rng
        self.build = build
        self.passes = 0

    def next_pass(self) -> list:
        ops = self.build(self.rng, self.passes)
        self.passes += 1
        return ops


def start_cycles(rng: random.Random, benchmarks, starts
                 ) -> Dict[str, List[int]]:
    """Per benchmark, every region start once, in a seed-shuffled order.

    Pass ``i`` uses entry ``i`` modulo the cycle, so a run spreads its
    passes evenly over the starts and every seed measures the same mix
    of regions.
    """
    cycles = {}
    for bench in benchmarks:
        cycles[bench] = list(starts)
        rng.shuffle(cycles[bench])
    return cycles


# -- timing_matrix -----------------------------------------------------------

@dataclass(frozen=True)
class TimingSpec:
    benchmarks: Tuple[str, ...] = ("mcf_17", "sjeng_06", "bfs",
                                   "stress_many")
    variants: Tuple[str, ...] = ("tage64", "mini", "big")
    instructions: int = 12_000
    warmup: int = 6_000
    starts: Tuple[int, ...] = (0, 4_000, 8_000, 12_000)


class TimingMatrix:
    """Full-timing cells through ``Session.simulate``, one cell per op."""

    name = "timing_matrix"

    def __init__(self, spec: TimingSpec = TimingSpec()):
        self.spec = spec

    def programs(self) -> Tuple[str, ...]:
        return self.spec.benchmarks

    def plan(self, seed: int) -> Plan:
        rng = random.Random(f"{self.name}:{seed}")
        cycles = start_cycles(rng, self.spec.benchmarks, self.spec.starts)

        def build(rng, index):
            ops = [(bench, cycle[index % len(cycle)], variant)
                   for bench, cycle in cycles.items()
                   for variant in self.spec.variants]
            rng.shuffle(ops)
            return ops

        return Plan(rng, build)

    def reference_ops(self) -> list:
        return [(bench, start, variant) for bench in self.spec.benchmarks
                for start in self.spec.starts
                for variant in self.spec.variants]

    def new_state(self) -> Session:
        # one trace cache for the whole run: each region is emulated once
        return Session(RunConfig(instructions=self.spec.instructions,
                                 warmup=self.spec.warmup))

    def warm(self) -> None:
        session = Session(RunConfig(instructions=300, warmup=200))
        for bench in self.spec.benchmarks:
            for variant in self.spec.variants:
                session.simulate(bench, cache=False, instructions=300,
                                 warmup=200, **variant_kwargs(variant))

    def run_op(self, session: Session, op,
               recorder: Optional[Recorder] = None) -> OpResult:
        bench, start, variant = op
        key = f"{bench}@{start}/{variant}"
        spec = self.spec
        payload = error = None
        with Stopwatch(recorder, key) as watch:
            try:
                result = session.simulate(
                    bench, cache=False, instructions=spec.instructions,
                    warmup=spec.warmup, start_instruction=start,
                    **variant_kwargs(variant))
                payload = result.to_dict()
            except Exception as exc:  # a failed cell is a counted failure
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            return OpResult(watch.wall, 0, [(key, None)], {key: error}, [])
        if recorder is not None:
            note_payload(recorder, payload)
        return OpResult(watch.wall, spec.instructions + spec.warmup,
                        [(key, payload_digest(payload))], {},
                        [(key, payload)])

    def model_error(self, payloads: Dict[str, dict]) -> Dict[str, float]:
        """|mean Big-vs-tage64 MPKI cut / IPC gain - paper| in points."""
        cuts, gains = [], []
        for key, base in payloads.items():
            if not key.endswith("/tage64"):
                continue
            big = payloads.get(key[:-len("tage64")] + "big")
            if big is None:
                continue
            cuts.append(mpki_improvement(base["mpki"], big["mpki"]))
            gains.append(ipc_improvement(base["ipc"], big["ipc"]))
        if not cuts:
            return {}
        return {
            "mpki_cut_err_pp": abs(sum(cuts) / len(cuts)
                                   - PAPER_BIG_MPKI_CUT),
            "ipc_gain_err_pp": abs(sum(gains) / len(gains)
                                   - PAPER_BIG_IPC_GAIN),
        }


# -- predictor_sweep ---------------------------------------------------------

@dataclass(frozen=True)
class SweepSpec:
    benchmarks: Tuple[str, ...] = ("mcf_17", "bfs")
    variants: Tuple[str, ...] = PREDICTOR_VARIANTS
    instructions: int = 12_000
    warmup: int = 4_000
    starts: Tuple[int, ...] = (10_000, 20_000, 30_000, 40_000)


class PredictorSweep:
    """MPKI-only design-space sweep: one benchmark's sweep per op.

    The ``run_cells`` half has no region-start argument, so it always
    replays the region at instruction 0; the seed-chosen start applies
    to the lane sweep.
    """

    name = "predictor_sweep"

    def __init__(self, spec: SweepSpec = SweepSpec()):
        self.spec = spec

    def programs(self) -> Tuple[str, ...]:
        return self.spec.benchmarks

    def plan(self, seed: int) -> Plan:
        rng = random.Random(f"{self.name}:{seed}")
        cycles = start_cycles(rng, self.spec.benchmarks, self.spec.starts)

        def build(rng, index):
            ops = []
            for bench, cycle in cycles.items():
                variants = list(self.spec.variants)
                rng.shuffle(variants)
                ops.append((bench, cycle[index % len(cycle)],
                            tuple(variants)))
            rng.shuffle(ops)
            return ops

        return Plan(rng, build)

    def reference_ops(self) -> list:
        return [(bench, start, self.spec.variants)
                for bench in self.spec.benchmarks
                for start in self.spec.starts]

    def new_state(self):
        return None

    def warm(self) -> None:
        spec = SweepSpec(benchmarks=self.spec.benchmarks,
                         instructions=2_000, warmup=1_000, starts=(500,))
        for op in PredictorSweep(spec).reference_ops():
            PredictorSweep(spec).run_op(None, op)

    def run_op(self, state, op,
               recorder: Optional[Recorder] = None) -> OpResult:
        bench, start, variants = op
        spec = self.spec
        region = spec.instructions + spec.warmup
        outputs: List[Tuple[str, Optional[str]]] = []
        errors: Dict[str, str] = {}
        payloads: List[Tuple[str, dict]] = []
        rows = lanes = None
        with Stopwatch(recorder, f"{bench}@{start}") as watch:
            # a fresh session per op: the region is emulated every time
            session = Session(RunConfig(instructions=spec.instructions,
                                        warmup=spec.warmup))
            rows = session.run_cells([(bench, variant)
                                      for variant in variants],
                                     outputs="mpki", cache=False)
            try:
                lanes = predictor_replay.replay_mpki_batch(
                    suite.load(bench), tage_batch_predictors(),
                    instructions=spec.instructions, warmup=spec.warmup,
                    start_instruction=start,
                    trace_cache=session.trace_cache)
                lanes = [lane.to_dict() for lane in lanes]
            except Exception as exc:  # a failed sweep is counted
                errors["lanes"] = f"{type(exc).__name__}: {exc}"
        delivered = 0
        for row in sorted(rows, key=lambda row: row["variant"]):
            key = f"{bench}/{row['variant']}"
            if row.get("ok", True) and row.get("payload") is not None:
                outputs.append((key, payload_digest(row["payload"])))
                payloads.append((key, row["payload"]))
                delivered += region
            else:
                outputs.append((key, None))
                errors[key] = (row.get("error") or {}).get("message", "")
        lane_count = len(tage_batch_predictors()) if lanes is None \
            else len(lanes)
        for index in range(lane_count):
            key = f"{bench}@{start}/lane{index:02d}"
            if lanes is None:
                outputs.append((key, None))
                errors[key] = errors["lanes"]
            else:
                outputs.append((key, payload_digest(lanes[index])))
                delivered += region
        errors.pop("lanes", None)
        return OpResult(watch.wall, delivered, outputs, errors, payloads)

    def model_error(self, payloads: Dict[str, dict]) -> Dict[str, float]:
        return {}


# -- resumable_sweep ---------------------------------------------------------

@dataclass(frozen=True)
class ResumableSpec:
    benchmarks: Tuple[str, ...] = tuple(suite.BENCHMARK_NAMES)
    variants: Tuple[str, ...] = ("tage64", "mini")
    instructions: int = 1_500
    warmup: int = 500
    jobs: int = 2


class ResumableSweep:
    """Store-backed sweep with trace spills: a cold half, then a resume.

    One operation is two ``run_cells`` calls on one fresh directory: a
    seed-chosen half of the cells cold (store writes, trace spills), then
    a fresh ``Session`` over the full matrix (store hits for that half,
    computed cells replaying spills where they exist).
    """

    name = "resumable_sweep"

    def __init__(self, spec: ResumableSpec = ResumableSpec(),
                 workdir: Optional[str] = None):
        self.spec = spec
        self.workdir = workdir

    def programs(self) -> Tuple[str, ...]:
        return self.spec.benchmarks

    def cells(self) -> List[Tuple[str, str]]:
        return [(bench, variant) for bench in self.spec.benchmarks
                for variant in self.spec.variants]

    def plan(self, seed: int) -> Plan:
        rng = random.Random(f"{self.name}:{seed}")

        def build(rng, index):
            cells = self.cells()
            cold = rng.sample(cells, len(cells) // 2)
            rng.shuffle(cells)
            return [(tuple(cold), tuple(cells))]

        return Plan(rng, build)

    def reference_ops(self) -> list:
        cells = tuple(self.cells())
        return [(cells[:len(cells) // 2], cells)]

    def new_state(self):
        return None

    def warm(self) -> None:
        spec = ResumableSpec(benchmarks=self.spec.benchmarks[:2],
                             instructions=300, warmup=200,
                             jobs=self.spec.jobs)
        warm = ResumableSweep(spec, self.workdir)
        warm.run_op(None, warm.reference_ops()[0])

    def run_op(self, state, op,
               recorder: Optional[Recorder] = None) -> OpResult:
        cold, cells = op
        spec = self.spec
        directory = tempfile.mkdtemp(prefix="sweep-", dir=self.workdir)
        config = RunConfig(
            instructions=spec.instructions, warmup=spec.warmup,
            jobs=spec.jobs,
            trace_cache_dir=os.path.join(directory, "traces"),
            result_store_dir=os.path.join(directory, "store"))
        journals = [os.path.join(directory, f"journal{step}.jsonl")
                    if recorder is not None else None for step in (0, 1)]
        try:
            with Stopwatch(recorder, f"sweep/{len(cells)}") as watch:
                first = Session(config).run_cells(
                    list(cold), jobs=spec.jobs, journal=journals[0])
                second = Session(config).run_cells(
                    list(cells), jobs=spec.jobs, journal=journals[1])
            if recorder is not None:
                for path in journals:
                    recorder.count("sched.cell_wait_s", _cell_waits(path))
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        outputs: List[Tuple[str, Optional[str]]] = []
        errors: Dict[str, str] = {}
        payloads: List[Tuple[str, dict]] = []
        compute = 0.0
        delivered = 0
        for step, rows in (("cold", first), ("resume", second)):
            for row in rows:
                key = f"{row['benchmark']}/{row['variant']}"
                if not row.get("result_store_hit"):
                    compute += (row.get("cell") or {}).get(
                        "wall_seconds", 0.0)
                if row.get("ok") and row.get("payload") is not None:
                    outputs.append((key, payload_digest(row["payload"])))
                    delivered += spec.instructions + spec.warmup
                    if not row.get("result_store_hit"):
                        payloads.append((key, row["payload"]))
                        if recorder is not None:
                            note_payload(recorder, row["payload"])
                else:
                    outputs.append((key, None))
                    errors[key] = f"{step}: " + str(
                        (row.get("error") or {}).get("message", "ok=False"))
        return OpResult(watch.wall, delivered, outputs, errors, payloads,
                        sched_overhead=watch.wall - compute / spec.jobs)

    def model_error(self, payloads: Dict[str, dict]) -> Dict[str, float]:
        return {}


def _cell_waits(path: str) -> float:
    """Sum over computed cells of (cell start - sweep start), in s."""
    events = read_journal(path)["events"]
    sweep_start = events[0]["t"]
    # only cell_finished carries the store-hit flag
    resumed = {event["index"] for event in events
               if event["event"] == "cell_finished"
               and event.get("result_store_hit")}
    return sum(event["t"] - sweep_start for event in events
               if event["event"] == "cell_started"
               and event["index"] not in resumed)


WORKLOADS = {
    TimingMatrix.name: TimingMatrix,
    PredictorSweep.name: PredictorSweep,
    ResumableSweep.name: ResumableSweep,
}
