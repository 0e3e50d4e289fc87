"""Branch Runahead orchestrator (§4, Figure 6).

Implements the :class:`~repro.uarch.core.RunaheadHooks` protocol and wires
together every mechanism of the paper:

* **fetch** — prediction-queue consumption overrides TAGE-SC-L, with the
  Figure 12 classification (inactive / late / throttled / used) and per
  queue throttling.
* **branch resolution** — validation of DCE predictions (divergence
  detection), merge-point training from a wrong-path shadow walk, and
  synchronization + chain initiation on mispredictions whose
  ``<PC, outcome>`` tag hits the chain cache.
* **retirement** — HBT training, CEB filling, chain extraction triggers,
  merge-point probing on the correct path, and poison-pass affector
  detection.
"""

from __future__ import annotations

from array import array
from collections import defaultdict, deque
from itertools import islice
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from repro.core.ceb import ChainExtractionBuffer
from repro.core.chain_cache import ChainCache
from repro.core.config import BranchRunaheadConfig
from repro.core.dce import DependenceChainEngine
from repro.core.hbt import HardBranchTable
from repro.core.merge_point import (
    MergePointPredictor,
    OracleMergeTracker,
    static_merge_prediction,
)
from repro.core.poison import PoisonPass
from repro.core.prediction_queue import (
    INACTIVE,
    LATE,
    PredictionQueueFile,
)
from repro.emulator.memory import Memory
from repro.emulator.shadow import (
    WalkPrefix,
    pc_typecode,
    wrong_path_steps,
    wrong_path_walk,
)
from repro.emulator.trace import DynamicUop
from repro.isa.program import Program
from repro.isa.uop import Uop
from repro.memsys.hierarchy import MemoryHierarchy
from repro.memsys.port import PortTracker
from repro.predictors.counters import Lfsr
from repro.telemetry import NULL_TRACER
from repro.uarch.core import RunaheadHooks
from repro.uarch.resources import FuTracker


class _PendingValidation:
    """Fetch-time context carried to the branch's resolution."""

    __slots__ = ("category", "value", "tage_pred", "used")

    def __init__(self, category: str, value: Optional[bool],
                 tage_pred: bool, used: bool):
        self.category = category
        self.value = value
        self.tage_pred = tage_pred
        self.used = used


class RunaheadStats:
    """Branch Runahead activity counters (feeds Figures 2, 3, 5, 12)."""

    def __init__(self):
        # Figure 12 breakdown over covered-branch predictions
        self.pred_inactive = 0
        self.pred_late = 0
        self.pred_throttled = 0
        self.pred_correct = 0
        self.pred_incorrect = 0
        self.divergences = 0
        self.resyncs = 0
        self.chains_extracted = 0
        self.chains_with_affector_guard = 0
        #: Per-branch chain-value accuracy (counts every validated value,
        #: timely or late) — the "Dependence Chains" series of Figure 1.
        self.value_checks: Dict[int, int] = defaultdict(int)
        self.value_correct: Dict[int, int] = defaultdict(int)

    @property
    def pred_total(self) -> int:
        return (self.pred_inactive + self.pred_late + self.pred_throttled
                + self.pred_correct + self.pred_incorrect)

    def breakdown(self) -> Dict[str, float]:
        total = self.pred_total
        if not total:
            return {key: 0.0 for key in
                    ("inactive", "late", "throttled", "incorrect", "correct")}
        return {
            "inactive": self.pred_inactive / total,
            "late": self.pred_late / total,
            "throttled": self.pred_throttled / total,
            "incorrect": self.pred_incorrect / total,
            "correct": self.pred_correct / total,
        }

    def register_into(self, scope) -> None:
        """Publish into a ``runahead.*`` scope (Figure 12 feeds ``pred.*``)."""
        scope.counter("divergences").set(self.divergences)
        scope.counter("resyncs").set(self.resyncs)
        scope.counter("chains_extracted").set(self.chains_extracted)
        scope.counter("chains_with_affector_guard").set(
            self.chains_with_affector_guard)
        pred = scope.scope("pred")
        pred.counter("inactive").set(self.pred_inactive)
        pred.counter("late").set(self.pred_late)
        pred.counter("throttled").set(self.pred_throttled)
        pred.counter("correct").set(self.pred_correct)
        pred.counter("incorrect").set(self.pred_incorrect)
        for key, value in self.breakdown().items():
            pred.gauge(f"{key}_fraction").set(value)
        accuracy = scope.histogram("value_accuracy_per_branch")
        for pc in sorted(self.value_checks):
            checks = self.value_checks[pc]
            if checks:
                accuracy.record(self.value_correct.get(pc, 0) / checks)


class BranchRunahead(RunaheadHooks):
    """The complete Branch Runahead system, attachable to a CoreModel."""

    def __init__(self,
                 config: Optional[BranchRunaheadConfig],
                 program: Program,
                 memory: Memory,
                 hierarchy: MemoryHierarchy,
                 dcache_ports: PortTracker,
                 core_alus: Optional[FuTracker] = None,
                 retire_width: int = 4,
                 track_merge_oracle: bool = False,
                 tracer=None):
        self.config = config or BranchRunaheadConfig()
        self.program = program
        self.memory = memory
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._tracing = self.tracer.enabled
        self.hbt = HardBranchTable(self.config)
        self.ceb = ChainExtractionBuffer(self.config, self.hbt, retire_width)
        self.chain_cache = ChainCache(self.config.chain_cache_entries)
        self.queues = PredictionQueueFile(
            self.config.prediction_queues,
            self.config.prediction_queue_entries,
            tracer=self.tracer)
        self.dce = DependenceChainEngine(
            self.config, self.chain_cache, self.queues, hierarchy, memory,
            dcache_ports, shared_alus=core_alus, tracer=self.tracer)
        self.merge_predictor = MergePointPredictor(self.config)
        self.oracle: Optional[OracleMergeTracker] = (
            OracleMergeTracker() if track_merge_oracle else None)
        self.stats = RunaheadStats()
        self._poison: Optional[PoisonPass] = None
        self._pending: Dict[int, Deque[_PendingValidation]] = \
            defaultdict(deque)
        self._lfsr = Lfsr(seed=0x1234)
        #: chains not yet usable: (ready_cycle, chain) installed with latency
        self._install_delay: List[Tuple[int, object]] = []
        #: Shadow uops executed by wrong-path walks (host work, not a
        #: simulated event).
        self.wrong_path_uops = 0
        #: Recorded wrong-path walks by mispredicted ``seq``: this run's own,
        #: unless ``simulate()`` binds the region's from the trace cache
        #: (:meth:`~repro.sim.trace_cache.TraceCache.bind_wrong_paths`).
        self.wrong_path_memo: Dict[int, WalkPrefix] = {}
        self.wrong_path_memo_hits = 0
        self.wrong_path_memo_misses = 0
        self._pc_typecode = pc_typecode(program)
        #: Whether a retirement may matter beyond the CEB: a merge search,
        #: poison pass or oracle search is open.
        self._watching = False

    # -- RunaheadHooks: fetch ------------------------------------------------

    def fetch_prediction(self, pc: int, fetch_cycle: int,
                         tage_pred: bool) -> Tuple[bool, str]:
        queue = self.queues.get(pc)
        if queue is None:
            return tage_pred, "tage"
        category, value = queue.consume(fetch_cycle)
        if category == INACTIVE:
            self.stats.pred_inactive += 1
            self._pending[pc].append(
                _PendingValidation("inactive", None, tage_pred, False))
            return tage_pred, "tage"
        if category == LATE:
            self.stats.pred_late += 1
            self._pending[pc].append(
                _PendingValidation("late", value, tage_pred, False))
            return tage_pred, "tage"
        # READY
        if queue.throttled:
            self.stats.pred_throttled += 1
            self._pending[pc].append(
                _PendingValidation("throttled", value, tage_pred, False))
            return tage_pred, "tage"
        self._pending[pc].append(
            _PendingValidation("used", value, tage_pred, True))
        if self._tracing:
            self.tracer.emit("pq_override", "pq", fetch_cycle, pc=pc,
                             value=bool(value), tage=tage_pred)
        return bool(value), "dce"

    # -- RunaheadHooks: resolution ----------------------------------------------

    def on_branch_resolved(self, record: DynamicUop, resolve_cycle: int,
                           mispredicted: bool, regs,
                           wrong_path_budget: int) -> None:
        pc = record.pc
        actual = record.taken
        diverged = False
        lineage_healthy = False  # DCE had the right value for this branch

        pending_queue = self._pending.get(pc)
        if pending_queue:
            pending = pending_queue.popleft()
            if pending.value is not None:
                dce_correct = pending.value == actual
                tage_correct = pending.tage_pred == actual
                self.stats.value_checks[pc] += 1
                if dce_correct:
                    self.stats.value_correct[pc] += 1
                queue = self.queues.get(pc)
                if queue is not None:
                    queue.update_throttle(dce_correct, tage_correct)
                if pending.used:
                    if dce_correct:
                        self.stats.pred_correct += 1
                    else:
                        self.stats.pred_incorrect += 1
                if dce_correct:
                    lineage_healthy = True
                else:
                    diverged = True
                    self.stats.divergences += 1

        if mispredicted:
            self._release_installed(resolve_cycle)
            if self.config.enable_affector_guard:
                self._train_merge_point(record, regs, wrong_path_budget)
                self._watching = True
                if self.oracle is not None:
                    long_shadow = wrong_path_walk(
                        self.program, regs, self.memory, pc, not actual,
                        self.oracle.max_distance)
                    self.wrong_path_uops += len(long_shadow)
                    self.oracle.start(record, long_shadow,
                                      static_merge_prediction(record.uop))

        # Synchronize on a misprediction whose tag hits the chain cache
        # (entering runahead, §4.1) or on a detected chain divergence — but
        # never tear down a lineage that supplied the *correct* value and was
        # merely late/throttled: it is still tracking the program.
        if diverged or (mispredicted and not lineage_healthy):
            if self.chain_cache.matching(pc, actual):
                self._cluster_resync(record, resolve_cycle, regs)

    def _train_merge_point(self, record: DynamicUop, regs,
                           budget: int) -> None:
        """Fill the WPB from the mispredicted branch's wrong path."""
        memo = self.wrong_path_memo
        prefix = memo.get(record.seq)
        if prefix is None:
            self.wrong_path_memo_misses += 1
            prefix = memo[record.seq] = WalkPrefix(self._pc_typecode)
        else:
            self.wrong_path_memo_hits += 1
        self.merge_predictor.train_on_mispredict(
            record, self._recorded_walk(prefix, regs, record.pc,
                                        not record.taken),
            prefix.store_address, budget)

    def _recorded_walk(self, prefix: WalkPrefix, regs, branch_pc: int,
                       wrong_taken: bool) -> Iterator[Uop]:
        """The wrong path's static uops: the recorded prefix, then — only
        if the consumer pulls past an unfinished prefix — a fresh walk that
        re-executes the prefix and records every uop pulled after it."""
        uops = self.program.uops
        pcs = prefix.pcs
        yield from map(uops.__getitem__, pcs)
        if prefix.ended:
            return
        steps = wrong_path_steps(self.program, regs, self.memory, branch_pc,
                                 wrong_taken)
        if pcs:
            deque(islice(steps, len(pcs)), maxlen=0)
            self.wrong_path_uops += len(pcs)
        append_pc = pcs.append
        for shadow in steps:
            self.wrong_path_uops += 1
            op = shadow.uop
            if op.is_store:
                if prefix.stores is None:
                    prefix.stores = array("q")
                prefix.stores.append(shadow.addr)
            append_pc(shadow.pc)
            yield op
        prefix.ended = True

    def _cluster_resync(self, record: DynamicUop, cycle: int, regs) -> None:
        """Resynchronize the lineage cluster rooted at the resolved branch.

        Only chains the branch's outcome (transitively) initiates are
        flushed and restarted; unrelated lineages keep their queued
        predictions — the behaviour the paper's per-branch queues with
        checkpointed fetch pointers provide across mispredictions.
        """
        self.stats.resyncs += 1
        if self._tracing:
            self.tracer.emit("resync", "runahead", cycle, pc=record.pc,
                             taken=record.taken)
        for branch_pc in self.chain_cache.reachable_from(record.pc):
            queue = self.queues.get(branch_pc)
            if queue is not None:
                queue.flush_unconsumed()
            self.dce.clear_parked(branch_pc)
        self.dce.sync(regs, cycle)
        self.dce.trigger(record.pc, record.taken,
                         cycle + self.config.sync_latency)

    # -- RunaheadHooks: retirement -------------------------------------------------

    def on_retire(self, record: DynamicUop, retire_cycle: int,
                  mispredicted: bool, regs) -> None:
        op = record.uop
        if not (self._watching or op.is_cond_branch):
            self.ceb.on_retire(record)  # nothing else sees this retirement
            return
        pc = record.pc

        if op.is_cond_branch:
            queue = self.queues.get(pc)
            if queue is not None:
                queue.retire_one()
                self.dce.on_queue_slot_freed(pc, retire_cycle)
            self.hbt.on_branch_retired(pc, record.taken, mispredicted)

        if self._watching:
            self._watch_retirement(record)

        self.ceb.on_retire(record)

        # chain extraction trigger (§4.3)
        if op.is_cond_branch and self.hbt.contains(pc):
            saturated = self.hbt.is_hard(pc)
            lucky = (self._lfsr.bits(7) <
                     int(self.config.random_extract_chance * 128))
            if saturated or (lucky and self.hbt.entries[pc].misp_counter > 0):
                needs_chain = not self.chain_cache.covers(pc)
                if needs_chain or self.hbt.agc(pc):
                    self._extract(pc, retire_cycle)

    def _watch_retirement(self, record: DynamicUop) -> None:
        """Merge-point probing on the correct path, the oracle, and the
        poison pass's affector detection."""
        merge = self.merge_predictor.on_retire(record)
        if merge is not None:
            for guarded_pc in merge.guarded_branches:
                self.hbt.add_affector_guard(guarded_pc, merge.branch_pc)
            if self.oracle is not None:
                self.oracle.register_dynamic(merge.merge_pc)
            self._poison = PoisonPass(merge,
                                      self.config.max_merge_distance)
        if self.oracle is not None:
            self.oracle.on_retire(record)
        if self._poison is not None:
            affectees = self._poison.on_retire(record)
            if affectees is not None:
                for affectee_pc in affectees:
                    self.hbt.add_affector_guard(affectee_pc,
                                                self._poison.affector_pc)
                self._poison = None
        self._watching = (self.merge_predictor.active
                          or self._poison is not None
                          or (self.oracle is not None and self.oracle.active))

    def _extract(self, branch_pc: int, retire_cycle: int) -> None:
        chain, latency = self.ceb.extract(branch_pc)
        if chain is None:
            return
        if self.hbt.agc(branch_pc):
            self.chain_cache.remove_for_branch(branch_pc)
            self.hbt.clear_agc(branch_pc)
        self.stats.chains_extracted += 1
        if chain.has_affector_or_guard:
            self.stats.chains_with_affector_guard += 1
        if self._tracing:
            self.tracer.emit("chain_extracted", "runahead", retire_cycle,
                             duration=max(1, latency), pc=branch_pc,
                             length=chain.length)
        # the chain becomes usable after the multi-cycle extraction walk
        self._install_delay.append((retire_cycle + latency, chain))

    def _release_installed(self, cycle: int) -> None:
        """Install chains whose extraction walk has finished by ``cycle``."""
        still_waiting = []
        for ready_cycle, chain in self._install_delay:
            if ready_cycle <= cycle:
                self.chain_cache.install(chain)
            else:
                still_waiting.append((ready_cycle, chain))
        self._install_delay = still_waiting

    def end_region(self, cycle: int) -> None:
        self._release_installed(cycle)

    # -- reporting ------------------------------------------------------------------

    def coverage(self) -> set:
        """Branch PCs with at least one installed chain."""
        return self.chain_cache.covered_branches()

    def register_into(self, registry) -> None:
        """Publish every mechanism's stats: ``runahead.*``, ``dce.*``,
        ``pq.*`` namespaces of the unified registry, plus the host-side
        ``host.runahead.wrong_path_uops``/``wrong_path_memo_hits``/
        ``wrong_path_memo_misses`` and ``host.dce.kernels_compiled``."""
        self.stats.register_into(registry.scope("runahead"))
        host = registry.scope("host")
        host_runahead = host.scope("runahead")
        host_runahead.counter("wrong_path_uops").set(self.wrong_path_uops)
        host_runahead.counter("wrong_path_memo_hits").set(
            self.wrong_path_memo_hits)
        host_runahead.counter("wrong_path_memo_misses").set(
            self.wrong_path_memo_misses)
        host.scope("dce").counter("kernels_compiled").set(
            self.dce.kernels_compiled)
        self.queues.register_into(registry.scope("pq"))
        dce_scope = registry.scope("dce")
        self.dce.stats.register_into(dce_scope)
        cache_scope = dce_scope.scope("chain_cache")
        chains = self.chain_cache.chains()
        cache_scope.gauge("installed").set(len(chains))
        cache_scope.gauge("covered_branches").set(
            len(self.chain_cache.covered_branches()))
        lengths = cache_scope.histogram("chain_length")
        for chain in chains:
            lengths.record(chain.length)
