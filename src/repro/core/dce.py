"""The Dependence Chain Engine (§4.2, Figure 7).

Executes dependence-chain instances continuously and asynchronously from the
core.  Each dynamic instance is bound by *global rename* to a (local register
file, local reservation station) pair — a **window slot** — and its uops are
scheduled out-of-order against the DCE's 2 ALUs and whatever D-cache ports
the core leaves idle.  Completed instances push their branch outcome into
the prediction queues and trigger successor chains per the configured
initiation mode (§4.1):

* **Non-speculative** — successors wait for the producing chain to finish.
* **Independent-early** — wildcard-tagged successors start as soon as the
  producer *initiates* (its outcome cannot matter).
* **Predictive** — a per-branch 3-bit counter predicts the producer's
  outcome so exact-tag successors can also start early; wrong guesses are
  flushed (energy) and reissued at producer completion (no later than
  non-speculative).

Functionally, instances execute in initiation order against the DCE's
architectural state (the paper's chain-to-chain local-RF forwarding), with
live-in values refreshed from the core's retired register file at every
synchronization.  Loads read the shared data memory through the shared
hierarchy; stores never escape the engine (they are move-eliminated at
extraction, and executed only as value forwards here).

An instance runs as its chain's compiled kernel
(:mod:`repro.core.chain_kernel`): straight-line code emitted once per
distinct chain content that computes values and ready cycles in locals,
books ALUs and D-cache ports through inlined fast paths, and calls the
hierarchy only for loads — the same values, cycles and bookings as
executing the chain uop by uop.
"""

from __future__ import annotations

import heapq
import time
from collections import defaultdict, deque
from typing import Dict, List, Optional

from repro.core.chain_cache import ChainCache
from repro.core.chain_kernel import kernel_for
from repro.core.config import (
    INDEPENDENT_EARLY,
    NON_SPECULATIVE,
    BranchRunaheadConfig,
)
from repro.core.prediction_queue import PredictionQueueFile
from repro.emulator.memory import Memory
from repro.isa.registers import NUM_ARCH_REGS
from repro.memsys.hierarchy import MemoryHierarchy
from repro.memsys.port import PortTracker
from repro.predictors.initiation_predictor import InitiationPredictor
from repro.telemetry import NULL_TRACER
from repro.uarch.resources import FuTracker

#: Safety bound on cascade length per trigger (far above any real cascade,
#: which is limited by prediction-queue capacity).
MAX_CASCADE_STEPS = 100_000


class DceStats:
    """Activity counters for the engine."""

    def __init__(self):
        self.uops_executed = 0
        self.loads_executed = 0
        self.instances_executed = 0
        self.instance_uops_total = 0  # post-elimination uops, for Figure 2
        self.flushed_uops = 0
        self.syncs = 0
        self.parked_events = 0
        self.suppressed_instances = 0
        self.window_stalls = 0
        self.uncovered_initiations = 0

    def dynamic_average_chain_length(self) -> float:
        if not self.instances_executed:
            return 0.0
        return self.instance_uops_total / self.instances_executed

    def register_into(self, scope) -> None:
        """Publish into a ``dce.*`` :class:`~repro.telemetry.StatScope`."""
        scope.counter("uops_executed").set(self.uops_executed)
        scope.counter("loads_executed").set(self.loads_executed)
        scope.counter("flushed_uops").set(self.flushed_uops)
        scope.counter("syncs").set(self.syncs)
        scope.counter("parked_events").set(self.parked_events)
        scope.counter("suppressed_instances").set(self.suppressed_instances)
        scope.counter("window_stalls").set(self.window_stalls)
        scope.counter("uncovered_initiations").set(self.uncovered_initiations)
        chains = scope.scope("chains")
        chains.counter("instances_executed").set(self.instances_executed)
        chains.counter("instance_uops_total").set(self.instance_uops_total)
        chains.gauge("dynamic_average_length").set(
            self.dynamic_average_chain_length())


class _LineageState:
    """Architectural values + per-register ready cycles of one chain lineage.

    Models the paper's per-chain local register files: a dynamic chain
    instance reads its live-ins from its *producer's* local RF (here: the
    state object handed along the trigger edge) and its outputs are visible
    only to its own successors.
    """

    __slots__ = ("regs", "ready")

    def __init__(self, regs: List[int], ready: List[int]):
        self.regs = regs
        self.ready = ready

    def snapshot(self) -> "_LineageState":
        return _LineageState(list(self.regs), list(self.ready))


class DependenceChainEngine:
    """Executes chains; owns the DCE-side architectural state."""

    def __init__(self,
                 config: BranchRunaheadConfig,
                 chain_cache: ChainCache,
                 queues: PredictionQueueFile,
                 hierarchy: MemoryHierarchy,
                 memory: Memory,
                 ports: PortTracker,
                 shared_alus: Optional[FuTracker] = None,
                 tracer=None):
        self.config = config
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._tracing = self.tracer.enabled
        #: Host wall-clock seconds spent running cascades (phase profiling).
        self.host_seconds = 0.0
        self.chain_cache = chain_cache
        self.queues = queues
        self.hierarchy = hierarchy
        self.memory = memory
        self.ports = ports
        if config.share_core_alus and shared_alus is not None:
            self.alus = shared_alus  # Core-Only: contend with the core
        else:
            self.alus = FuTracker(config.dce_alus)
        self.init_predictor = InitiationPredictor()
        self.stats = DceStats()
        # architectural state captured at the last synchronization; every
        # trigger roots a new *lineage* from it
        self._sync_regs: List[int] = [0] * NUM_ARCH_REGS
        self._sync_ready = 0
        # window occupancy: finish cycles of in-flight instances
        self._active_finishes: List[int] = []
        # instances that could not allocate a prediction-queue slot
        self._parked: Dict[int, deque] = defaultdict(deque)
        #: Chain kernels this engine had to compile (host work: kernels are
        #: shared per process, see :mod:`repro.core.chain_kernel`).
        self.kernels_compiled = 0

    # -- synchronization ----------------------------------------------------

    def sync(self, core_regs: List[int], cycle: int) -> None:
        """Copy live-ins from the core's retired register file (§4.1)."""
        self._sync_regs = list(core_regs)
        self._sync_ready = cycle + self.config.sync_latency
        self.stats.syncs += 1
        if self._tracing:
            self.tracer.emit("dce_sync", "dce", cycle,
                             ready=self._sync_ready)

    def clear_parked(self, branch_pc: int) -> None:
        """Drop parked continuations of a resynchronized lineage."""
        self._parked.pop(branch_pc, None)

    def _root_lineage(self) -> "_LineageState":
        return _LineageState(list(self._sync_regs),
                             [self._sync_ready] * NUM_ARCH_REGS)

    # -- triggering ------------------------------------------------------------

    def trigger(self, trigger_pc: int, outcome: bool, cycle: int) -> int:
        """Initiate every chain matching ``<trigger_pc, outcome>`` and run the
        resulting cascade.  Returns the number of instances executed.

        Each matched chain starts its own lineage from the synchronized
        state — the model of per-chain local register files: values flow
        from producer to consumer chain along trigger edges only, never
        across unrelated lineages.
        """
        chains = self.chain_cache.matching(trigger_pc, outcome)
        worklist = deque((chain, cycle, self._root_lineage())
                         for chain in chains)
        return self._run_cascade(worklist)

    def on_queue_slot_freed(self, branch_pc: int, cycle: int) -> None:
        """A prediction for ``branch_pc`` retired; resume parked work."""
        parked = self._parked.get(branch_pc)
        if not parked:
            return
        chain, bound, state = parked.popleft()
        self._run_cascade(deque([(chain, max(bound, cycle), state)]))

    # -- cascade ------------------------------------------------------------------

    def _run_cascade(self, worklist: deque) -> int:
        """Run worklist instances and every successor they trigger.

        Per instance: global rename binds a window slot (local RF + local
        RS), the chain's prediction queue supplies a slot, the chain's
        compiled kernel (:mod:`repro.core.chain_kernel`) executes it, and
        the outcome initiates the successor chains.
        """
        host_start = time.perf_counter()
        config = self.config
        stats = self.stats
        tracing = self._tracing
        queues = self.queues
        matching = self.chain_cache.matching
        finishes = self._active_finishes
        window_slots = config.window_slots
        runahead_limit = config.runahead_limit
        mode = config.initiation_mode
        in_order = 1 if config.dce_in_order else 0
        mem_get = self.memory._words.get  # Memory.read, minus the call
        alus = self.alus
        alu_usage = alus._usage
        ports = self.ports
        port_usage = ports._usage
        access_data = self.hierarchy.access_data
        executed = 0
        steps = 0
        while worklist and steps < MAX_CASCADE_STEPS:
            steps += 1
            chain, init_cycle, state = worklist.popleft()
            # global rename: bind to a window slot (local RF + local RS)
            while finishes and finishes[0] <= init_cycle:
                heapq.heappop(finishes)
            if len(finishes) >= window_slots:
                earliest = heapq.heappop(finishes)
                if earliest > init_cycle:
                    init_cycle = earliest
                    stats.window_stalls += 1
            branch_pc = chain.branch_pc
            queue = queues.get_or_assign(branch_pc)
            if queue is None:
                stats.uncovered_initiations += 1
                continue
            if queue.throttle < 0:
                # the DCE-side corollary of prediction throttling: a lineage
                # whose values keep losing to TAGE is not worth executing;
                # the throttle decays on retirements so the chain
                # periodically retries (energy control, see Figure 14)
                stats.suppressed_instances += 1
                continue
            ahead_cap = queue.capacity
            if runahead_limit < ahead_cap:
                ahead_cap = runahead_limit
            slot = (-1 if queue.push_ptr - queue.retire_ptr >= ahead_cap
                    else queue.allocate())
            if slot < 0:
                self._parked[branch_pc].append((chain, init_cycle, state))
                stats.parked_events += 1
                continue

            if tracing:
                self.tracer.emit("chain_launch", "dce", init_cycle,
                                 pc=branch_pc, length=chain.length,
                                 tag=list(chain.tag))
            kernel = chain.kernels[in_order]
            if kernel is None:
                kernel, compiled = kernel_for(chain, in_order)
                chain.kernels[in_order] = kernel
                self.kernels_compiled += compiled
            outcome, finish = kernel(state.regs, state.ready, init_cycle,
                                     mem_get, alus, alu_usage, ports,
                                     port_usage, access_data, stats)
            heapq.heappush(finishes, finish)
            queue.fill(slot, outcome, finish)
            stats.instances_executed += 1
            stats.instance_uops_total += chain.length
            if tracing:
                self.tracer.emit("chain_complete", "dce", init_cycle,
                                 duration=max(1, finish - init_cycle),
                                 pc=branch_pc, outcome=outcome)
            executed += 1

            # successors: every chain this outcome initiates
            successors = matching(branch_pc, outcome)
            if not successors:
                continue
            # which successors may start one cycle after this initiation
            # instead of at its completion (§4.1)
            if mode == NON_SPECULATIVE:
                all_early = wildcards_early = False
            elif mode == INDEPENDENT_EARLY:
                all_early, wildcards_early = False, True
            else:  # PREDICTIVE
                predicted = self.init_predictor.observe(branch_pc, outcome)
                all_early, wildcards_early = predicted == outcome, True
                if not all_early:
                    # the wrong-direction exact-tag chains were issued,
                    # then flushed when the producing chain resolved
                    # (energy cost)
                    stats.flushed_uops += self.chain_cache.tagged_length(
                        branch_pc, 1 if predicted else 0)
            # every successor consumes the producer's live-outs: each
            # receives a snapshot of the lineage state at this completion,
            # so siblings' writes can never leak into one another (a single
            # successor may take the state itself — no sibling reads it
            # afterwards)
            single = len(successors) == 1
            for successor in successors:
                if all_early or (wildcards_early and successor.is_wildcard):
                    start = init_cycle + 1
                else:
                    start = finish
                worklist.append((successor, start,
                                 state if single else state.snapshot()))
        self.host_seconds += time.perf_counter() - host_start
        return executed
