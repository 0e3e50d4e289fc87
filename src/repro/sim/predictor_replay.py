"""MPKI-only predictor replay: the sweep fast path.

A large slice of the experiment matrix — predictor sweeps, MTAGE-SC
comparisons, per-branch MPKI breakdowns — needs only branch *outcomes*,
never cycles.  For those cells the full timing model (CoreModel + memory
hierarchy) is pure overhead: the committed branch stream is a function of
the program alone, so once the trace cache holds a region, MPKI for any
baseline predictor is just predict/update over that stream.

:func:`replay_mpki_batch` is the one entry point: it replays the stream
through K predictor lanes in one pass, K = 1 for a lone cell.  It
reproduces ``CoreModel.run``'s measurement semantics exactly — warmup
instructions train but are not counted, stats reset at the warmup
boundary, a stream that ends at or before the boundary reports the whole
run with ``warmup_truncated`` set — so every lane's MPKI, mispredict
counts, and per-PC breakdowns are bit-identical to a full-timing run of
the same cell (``tests/test_predictor_replay.py`` pins this).  It is only
valid for *predictor-only* cells: with Branch Runahead attached the final
prediction depends on DCE timing, which this path does not model, so
:class:`repro.session.Session` runs those cells through the full
simulator.

Branch columns are extracted once per region and cached on the
:class:`~repro.sim.trace_cache.TraceEntry` itself, so a sweep of N
predictors over one region pays one functional emulation plus one
extraction.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, deque
from typing import List, Optional, Sequence, Union

from repro.emulator.machine import Machine
from repro.isa.program import Program
from repro.predictors.base import BranchPredictor
from repro.predictors.batched import replay_lanes
from repro.sim.branch_events import BranchColumns, extract_columns
from repro.sim.results import register_predictor
from repro.sim.trace_cache import TraceCache
from repro.telemetry import PhaseTimers, StatRegistry, Telemetry
from repro.uarch.stats import CoreStats


def load_branch_columns(program: Program, start: int, total: int,
                        trace_cache: Optional[TraceCache] = None
                        ) -> BranchColumns:
    """The region's committed branch stream, in columnar form.

    With a trace cache the chain is: memoized columns on a warm entry, the
    compact ``.events`` disk sidecar (no unpickling), the full ``.trace``
    entry, and finally one functional emulation recorded for next time.
    Without a cache the emulation's records stream straight into the
    extraction and none is held (a throwaway entry would hold them all:
    +32 MB of peak memory against +1.6 MB on a 200k-instruction
    ``mcf_17`` region).
    """
    if trace_cache is not None:
        columns = trace_cache.branch_columns(program, start, total)
        if columns is not None:
            return columns
    machine = Machine(program)
    if start:
        machine.fast_forward(start)
    stream = machine.stream(total)
    if trace_cache is None:
        return extract_columns(stream)
    # drain at C speed: nothing consumes the records here, the recording
    # generator stores them as its side effect
    deque(trace_cache.record(machine, start, total, stream), maxlen=0)
    return trace_cache.branch_columns(program, start, total, count=False)


class PredictorReplayResult:
    """Result of an MPKI-only cell: branch stats, no cycles.

    Duck-types the slice of :class:`~repro.sim.results.SimulationResult`
    the experiment runner and CLI consume (``mpki``, ``core``,
    ``build_registry``, ``to_dict``); timing-dependent fields are absent
    by construction — ``ipc`` exports as None and the payload carries
    ``"mpki_only": true`` so downstream consumers cannot mistake it for a
    full-timing document.
    """

    mpki_only = True
    runahead = None

    def __init__(self, program_name: str, predictor: BranchPredictor,
                 core: CoreStats, telemetry: Telemetry,
                 trace_cache: Optional[TraceCache] = None,
                 lanes_deduped: int = 0):
        self.program_name = program_name
        self.predictor = predictor
        self.core = core
        self.telemetry = telemetry
        self.trace_cache = trace_cache
        #: how many sibling lanes of the same batch call were served from
        #: another lane's result
        self.lanes_deduped = lanes_deduped
        self._registry: Optional[StatRegistry] = None

    @property
    def mpki(self) -> float:
        return self.core.mpki

    @property
    def ipc(self) -> None:
        return None  # no timing model ran; never report a fake 0.0

    def summary(self) -> str:
        core = self.core
        return (f"{self.program_name}: {core.instructions} instrs "
                f"(mpki-only), MPKI={core.mpki:.2f}, "
                f"branch acc={core.branch_accuracy() * 100:.2f}%")

    def build_registry(self) -> StatRegistry:
        """Branch-prediction stats only; no memsys/cycle namespaces.

        Registering the full ``CoreStats`` would publish cycles/IPC/loads
        as zeros, which reads as data; instead only the counters this path
        actually computed appear.
        """
        if self._registry is not None:
            return self._registry
        registry = self._registry = self.telemetry.registry
        core = self.core
        scope = registry.scope("core")
        scope.counter("instructions").set(core.instructions)
        scope.gauge("mpki").set(core.mpki)
        scope.gauge("warmup_truncated").set(int(core.warmup_truncated))
        fetch = scope.scope("fetch")
        fetch.counter("cond_branches").set(core.cond_branches)
        fetch.counter("mispredicts").set(core.mispredicts)
        fetch.counter("taken_branches").set(core.taken_branches)
        fetch.counter("baseline_mispredicts").set(core.baseline_mispredicts)
        fetch.gauge("branch_accuracy").set(core.branch_accuracy())
        branches = scope.scope("branches")
        branches.gauge("static_cond").set(len(core.branch_counts))
        misp_histogram = branches.histogram("mispredicts_per_pc")
        for pc in sorted(core.branch_mispredicts):
            misp_histogram.record(core.branch_mispredicts[pc])
        register_predictor(registry.scope("predictor"), self.predictor,
                           core)
        host = registry.scope("host")
        self.telemetry.timers.register_into(host.scope("phase"))
        if self.trace_cache is not None:
            self.trace_cache.register_into(host.scope("trace_cache"))
        # host scope: a diagnostic the payload-digest checks strip
        host.scope("batch").counter("lanes_deduped").set(self.lanes_deduped)
        return registry

    def to_dict(self) -> dict:
        return {
            "benchmark": self.program_name,
            "predictor": getattr(self.predictor, "name", None),
            "branch_runahead": False,
            "mpki_only": True,
            "ipc": None,
            "mpki": self.mpki,
            "stats": self.build_registry().to_dict(),
        }


def replay_mpki_batch(program: Program,
                      predictors: Sequence[Union[BranchPredictor, str]],
                      instructions: int, warmup: int = 0,
                      start_instruction: int = 0,
                      trace_cache: Optional[TraceCache] = None
                      ) -> List[PredictorReplayResult]:
    """Replay one branch stream through K predictor configurations.

    One region load, one pass of the committed branch stream advancing
    every lane (vectorized kernels per predictor family where applicable,
    lockstep otherwise — see :mod:`repro.predictors.batched`), then one
    :class:`PredictorReplayResult` per lane.  Measurement semantics mirror
    ``CoreModel.run`` record for record:

    * records ``[0, warmup)`` train the predictor but count nothing;
    * counting starts at the record whose region index equals ``warmup``;
    * a region of at most ``warmup`` records never crosses the boundary,
      so the whole run is reported and ``warmup_truncated`` is set —
      exactly the short-stream rule of the timing model.

    Every lane's MPKI, mispredict counts, per-PC breakdowns, and
    (host-stripped) payload are bit-identical to a scalar predict/update
    loop over the same stream; ``tests/test_batch_replay.py`` pins this
    differentially for every registered predictor.  A lane that took a
    vectorized kernel keeps its prediction evolution in the kernel's own
    arrays, so the predictor *instance's* table state is left
    unspecified — treat lane predictors as consumed by this call.

    Each result additionally reports ``host.batch.lanes_deduped`` — how
    many lanes were satisfied by an equivalent sibling's replay rather
    than their own.
    """
    resolved: List[BranchPredictor] = []
    for predictor in predictors:
        if isinstance(predictor, str):
            from repro.predictors.registry import make_predictor
            predictor = make_predictor(predictor)
        resolved.append(predictor)
    telemetries = [Telemetry() for _ in resolved]
    total = instructions + warmup
    # the lanes share one region load and one stream pass: time each step
    # once and book an even share into every lane, as a fused sweep row
    # splits its wall time, so the lanes' phases sum to the call's time
    shared = PhaseTimers()
    with shared.phase("setup"):
        columns = load_branch_columns(program, start_instruction, total,
                                      trace_cache)
    record_count = columns.record_count
    warmed = warmup > 0 and record_count > warmup
    boundary = warmup if warmed else 0
    with shared.phase("mpki_replay"):
        split = bisect_left(columns.indices, boundary)
        lanes = replay_lanes(resolved, columns.pcs, columns.takens, split)
    for telemetry in telemetries:
        for phase, seconds in shared.to_dict().items():
            telemetry.timers.add(phase, seconds / len(telemetries))
    # measured-stream aggregates are lane-independent: count them once
    cond_branches = len(columns.pcs) - split
    taken_branches = int(sum(columns.takens[split:]))
    shared_counts = Counter(columns.pcs[split:].tolist())
    # equivalent lanes (the kernel dedupes configurations that induce the
    # same table partition) return the same mispredict-list object, so
    # the per-PC count is built once per unique list
    counted: dict = {}
    lanes_deduped = len(lanes) - len({id(m) for m in lanes})
    results: List[PredictorReplayResult] = []
    for predictor, telemetry, mispredicted in zip(resolved, telemetries,
                                                  lanes):
        key = id(mispredicted)
        if key not in counted:
            counted[key] = Counter(mispredicted)
        stats = CoreStats()
        stats.cond_branches = cond_branches
        stats.taken_branches = taken_branches
        stats.mispredicts = len(mispredicted)
        stats.baseline_mispredicts = stats.mispredicts
        stats.branch_counts.update(shared_counts)
        stats.branch_mispredicts.update(counted[key])
        stats.instructions = record_count - boundary
        stats.warmup_truncated = warmup > 0 and not warmed
        results.append(PredictorReplayResult(
            program.name, predictor, stats, telemetry,
            trace_cache=trace_cache, lanes_deduped=lanes_deduped))
    return results
