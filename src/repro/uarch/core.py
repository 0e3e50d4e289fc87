"""Out-of-order core timing model (the Scarab substitute).

A scoreboard-style model: one in-order pass over the committed dynamic uop
stream computes, for every uop, its fetch / dispatch / issue / complete /
retire cycles under the configured resource limits (fetch width, ROB, RS,
ALUs, D-cache ports, memory hierarchy latencies).  Wrong-path *timing* is
modeled with a front-end redirect penalty tied to branch resolution; wrong
path *content* (needed by the merge-point predictor) is produced on demand
by the Branch Runahead hooks via shadow execution.

Branch Runahead attaches through the :class:`RunaheadHooks` protocol; the
core itself stays mechanism-agnostic, exactly as the paper's Figure 6 draws
the DCE alongside (not inside) the pipeline.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Tuple

from repro.emulator.trace import DynamicUop
from repro.isa.registers import NUM_ARCH_REGS
from repro.memsys.hierarchy import MemoryHierarchy
from repro.memsys.port import PortTracker
from repro.predictors.base import BranchPredictor
from repro.telemetry import NULL_TRACER
from repro.uarch.config import CoreConfig
from repro.uarch.lsq import StoreForwarder
from repro.uarch.resources import FuTracker, RingTracker
from repro.uarch.stats import CoreStats


def _perfect_baseline(pc: int, taken: bool) -> bool:
    return taken


class RunaheadHooks:
    """Interface Branch Runahead implements to attach to the core.

    The default implementations are no-ops, so the baseline core runs with a
    ``RunaheadHooks()`` (or ``None``) attachment.

    Hooks see the baseline predictor only through the ``tage_pred``
    argument of :meth:`fetch_prediction`; they must never read or train the
    baseline predictor itself.  The core obtains each baseline prediction
    (already trained on the branch's outcome) before it calls the hooks,
    and ``simulate()`` may serve those predictions from a recorded column
    without running the predictor at all.
    """

    def fetch_prediction(self, pc: int, fetch_cycle: int,
                         tage_pred: bool) -> Tuple[bool, str]:
        """Final direction for the branch at ``pc`` plus its source.

        Returns ``(prediction, source)`` with source ``"dce"`` when a
        prediction-queue entry overrides the baseline predictor, else
        ``"tage"``.
        """
        return tage_pred, "tage"

    def on_branch_resolved(self, record: DynamicUop, resolve_cycle: int,
                           mispredicted: bool, regs, wrong_path_budget: int
                           ) -> None:
        """Called when a conditional branch resolves in the backend."""

    def on_retire(self, record: DynamicUop, retire_cycle: int,
                  mispredicted: bool, regs) -> None:
        """Called as each uop retires, in program order."""

    def end_region(self, cycle: int) -> None:
        """Called once after the last instruction of a region."""


class CoreModel:
    """The 4-wide out-of-order core of Table 1."""

    def __init__(self,
                 config: Optional[CoreConfig] = None,
                 hierarchy: Optional[MemoryHierarchy] = None,
                 predictor: Optional[BranchPredictor] = None,
                 runahead: Optional[RunaheadHooks] = None,
                 tracer=None,
                 baseline: Optional[Callable[[int, bool], bool]] = None):
        self.config = config or CoreConfig()
        self.hierarchy = hierarchy or MemoryHierarchy()
        self._l1_latency = self.hierarchy.config.l1_latency
        #: ``baseline(pc, taken)``: the baseline predictor's direction for
        #: one committed conditional branch, trained on ``taken`` before it
        #: returns.  Defaults to ``predictor.observe`` (a perfect baseline
        #: when there is no predictor); ``simulate()`` may pass a reader
        #: over a recorded prediction column instead.
        if baseline is None:
            baseline = predictor.observe if predictor is not None \
                else _perfect_baseline
        self.baseline = baseline
        self.runahead = runahead or RunaheadHooks()  # property: caches hooks
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # the one-time no-op-sink check: per-event emission is guarded by
        # this plain boolean, never by a call into a disabled tracer
        self._tracing = self.tracer.enabled
        cfg = self.config
        self.alus = FuTracker(cfg.num_alus)
        self.dcache_ports = PortTracker(cfg.num_dcache_ports)
        self.rob = RingTracker(cfg.rob_size)
        self.rs = RingTracker(cfg.rs_size)
        self.forwarder = StoreForwarder()
        self.stats = CoreStats()
        #: Architectural register file as of the last retired uop; Branch
        #: Runahead copies chain live-ins from here (the "physical register
        #: file" read of §4.1).
        self.retired_regs = [0] * NUM_ARCH_REGS
        # fetch state
        self._next_fetch_cycle = 0
        self._fetch_slots_used = 0
        # retire state
        self._last_retire_cycle = 0
        self._retired_in_cycle = 0
        # register availability
        self._reg_ready = [0] * NUM_ARCH_REGS
        self._issued_uops = 0

    @property
    def runahead(self) -> RunaheadHooks:
        return self._runahead

    @runahead.setter
    def runahead(self, hooks: Optional[RunaheadHooks]) -> None:
        hooks = hooks if hooks is not None else RunaheadHooks()
        self._runahead = hooks
        # cache the per-retire hook so the hot path can skip the call
        # entirely when the default no-op hooks are attached (baseline runs
        # pay nothing for the attachment point)
        self._on_retire = (None if type(hooks) is RunaheadHooks
                           else hooks.on_retire)

    # -- public entry -----------------------------------------------------

    def run(self, stream: Iterable[DynamicUop], warmup: int = 0,
            initial_regs=None) -> CoreStats:
        """Simulate the committed stream; return region statistics.

        The first ``warmup`` instructions train predictors/caches but are
        excluded from the reported statistics.  When the stream starts
        mid-program (SimPoint regions), pass the machine's architectural
        registers as ``initial_regs`` so the retired register file — the
        source of chain live-ins — reflects state produced before the
        region.

        Short streams: if the stream ends *at or before* the warmup
        boundary, there is no measured region to report, so the whole run
        (warmup included) is reported instead and
        ``stats.warmup_truncated`` is set.  Stats are only ever reset once
        a post-warmup record actually arrives, so a region that is exactly
        ``warmup`` long cannot report zeroed counters.
        """
        if initial_regs is not None:
            self.retired_regs = list(initial_regs)
        # per-kind handlers indexed by the precomputed Uop.kind tag
        # (KIND_ALU, KIND_LOAD, KIND_STORE, KIND_COND_BRANCH, KIND_JUMP,
        # KIND_HALT — HALT never reaches the committed stream but maps to
        # the ALU handler for safety)
        handlers = (self._process_alu, self._process_load,
                    self._process_store, self._process_branch,
                    self._process_jump, self._process_alu)
        count = 0
        warmup_end_cycle = 0
        warmed_up = False
        for record in stream:
            if count == warmup and warmup:
                warmup_end_cycle = self._last_retire_cycle
                self._reset_stats()
                warmed_up = True
            handlers[record.uop.kind](record)
            count += 1
        if warmed_up:
            self.stats.instructions = count - warmup
            self.stats.cycles = max(1, self._last_retire_cycle
                                    - warmup_end_cycle)
        else:
            self.stats.instructions = count
            self.stats.cycles = max(1, self._last_retire_cycle)
            self.stats.warmup_truncated = warmup > 0
        self.runahead.end_region(self._last_retire_cycle)
        return self.stats

    def _reset_stats(self) -> None:
        preserved_regs = self.retired_regs
        self.stats = CoreStats()
        self.retired_regs = preserved_regs

    # -- per-instruction pipeline -------------------------------------------
    #
    # One specialized handler per uop kind, selected in :meth:`run` by the
    # precomputed ``Uop.kind`` tag.  Each handler fully inlines the shared
    # fetch / dispatch / issue / retire skeleton — including the bodies of
    # ``RingTracker.earliest_free``/``allocate`` and the hierarchy's
    # same-line I-fetch fast path — because at tens of thousands of dynamic
    # uops per region even the helper-call overhead is a measurable slice of
    # the timing phase.  KEEP THE FIVE BODIES IN SYNC; the
    # pipeline-behaviour and differential tests pin the shared semantics.

    def _process(self, record: DynamicUop) -> None:
        """Kind-dispatching entry point (compatibility wrapper)."""
        (self._process_alu, self._process_load, self._process_store,
         self._process_branch, self._process_jump,
         self._process_alu)[record.uop.kind](record)

    def _process_alu(self, record: DynamicUop) -> None:
        cfg = self.config
        op = record.uop
        pc = record.pc
        # ---- fetch -------------------------------------------------------
        if self._fetch_slots_used >= cfg.fetch_width:
            self._next_fetch_cycle += 1
            self._fetch_slots_used = 0
        fetch_cycle = self._next_fetch_cycle
        hierarchy = self.hierarchy
        if pc >> 3 == hierarchy._last_insn_line:
            hierarchy.l1i.stats.hits += 1  # same-line fetch: guaranteed hit
        else:
            icache_done = hierarchy.access_insn(pc, fetch_cycle)
            if icache_done > fetch_cycle + self._l1_latency:
                fetch_cycle = icache_done
                self._next_fetch_cycle = fetch_cycle
                self._fetch_slots_used = 0
        self._fetch_slots_used += 1
        if self._tracing:
            self.tracer.emit("fetch", "core", fetch_cycle,
                             pc=pc, seq=record.seq)
        # ---- dispatch / issue --------------------------------------------
        dispatch = fetch_cycle + cfg.frontend_depth
        rob = self.rob
        oldest = rob._release[rob._next]
        if oldest > dispatch:
            rob.stall_events += 1
            dispatch = oldest
        rs = self.rs
        oldest = rs._release[rs._next]
        if oldest > dispatch:
            rs.stall_events += 1
            dispatch = oldest
        ready = dispatch
        reg_ready = self._reg_ready
        for src in op.src_regs:
            src_ready = reg_ready[src]
            if src_ready > ready:
                ready = src_ready
        issue = self.alus.acquire(ready)
        self._issued_uops += 1
        complete = issue + op.latency
        for dst in op.dst_regs:
            reg_ready[dst] = complete
        # ---- retire ------------------------------------------------------
        retire = complete + 1
        last = self._last_retire_cycle
        if retire < last:
            retire = last
        if retire == last:
            if self._retired_in_cycle >= cfg.retire_width:
                retire += 1
                self._retired_in_cycle = 0
        else:
            self._retired_in_cycle = 0
        self._retired_in_cycle += 1
        self._last_retire_cycle = retire
        index = rob._next
        rob._release[index] = retire
        rob._next = (index + 1) % rob.capacity
        index = rs._next
        rs._release[index] = issue + 1
        rs._next = (index + 1) % rs.capacity
        retired_regs = self.retired_regs
        for dst in op.dst_regs:
            retired_regs[dst] = record.dst_value
        if self._tracing:
            self.tracer.emit("retire", "core", retire,
                             pc=pc, seq=record.seq)
        on_retire = self._on_retire
        if on_retire is not None:
            on_retire(record, retire, False, retired_regs)
        # periodic pruning of per-cycle trackers
        if record.seq & 0x3FF == 0:
            low_water = fetch_cycle - 512
            if low_water < 0:
                low_water = 0
            self.alus.prune(low_water)
            self.dcache_ports.prune(low_water)

    def _process_load(self, record: DynamicUop) -> None:
        cfg = self.config
        op = record.uop
        pc = record.pc
        # ---- fetch -------------------------------------------------------
        if self._fetch_slots_used >= cfg.fetch_width:
            self._next_fetch_cycle += 1
            self._fetch_slots_used = 0
        fetch_cycle = self._next_fetch_cycle
        hierarchy = self.hierarchy
        if pc >> 3 == hierarchy._last_insn_line:
            hierarchy.l1i.stats.hits += 1  # same-line fetch: guaranteed hit
        else:
            icache_done = hierarchy.access_insn(pc, fetch_cycle)
            if icache_done > fetch_cycle + self._l1_latency:
                fetch_cycle = icache_done
                self._next_fetch_cycle = fetch_cycle
                self._fetch_slots_used = 0
        self._fetch_slots_used += 1
        if self._tracing:
            self.tracer.emit("fetch", "core", fetch_cycle,
                             pc=pc, seq=record.seq)
        # ---- dispatch / issue --------------------------------------------
        dispatch = fetch_cycle + cfg.frontend_depth
        rob = self.rob
        oldest = rob._release[rob._next]
        if oldest > dispatch:
            rob.stall_events += 1
            dispatch = oldest
        rs = self.rs
        oldest = rs._release[rs._next]
        if oldest > dispatch:
            rs.stall_events += 1
            dispatch = oldest
        ready = dispatch
        reg_ready = self._reg_ready
        for src in op.src_regs:
            src_ready = reg_ready[src]
            if src_ready > ready:
                ready = src_ready
        issue = self.alus.acquire(ready)
        self._issued_uops += 1
        self.stats.loads += 1
        self.dcache_ports.use_core(issue)
        complete = self.forwarder.try_forward(record.addr, issue)
        if complete < 0:
            complete = hierarchy.access_data(record.addr, issue)
        for dst in op.dst_regs:
            reg_ready[dst] = complete
        # ---- retire ------------------------------------------------------
        retire = complete + 1
        last = self._last_retire_cycle
        if retire < last:
            retire = last
        if retire == last:
            if self._retired_in_cycle >= cfg.retire_width:
                retire += 1
                self._retired_in_cycle = 0
        else:
            self._retired_in_cycle = 0
        self._retired_in_cycle += 1
        self._last_retire_cycle = retire
        index = rob._next
        rob._release[index] = retire
        rob._next = (index + 1) % rob.capacity
        index = rs._next
        rs._release[index] = issue + 1
        rs._next = (index + 1) % rs.capacity
        retired_regs = self.retired_regs
        for dst in op.dst_regs:
            retired_regs[dst] = record.dst_value
        if self._tracing:
            self.tracer.emit("retire", "core", retire,
                             pc=pc, seq=record.seq)
        on_retire = self._on_retire
        if on_retire is not None:
            on_retire(record, retire, False, retired_regs)
        # periodic pruning of per-cycle trackers
        if record.seq & 0x3FF == 0:
            low_water = fetch_cycle - 512
            if low_water < 0:
                low_water = 0
            self.alus.prune(low_water)
            self.dcache_ports.prune(low_water)

    def _process_store(self, record: DynamicUop) -> None:
        cfg = self.config
        op = record.uop
        pc = record.pc
        # ---- fetch -------------------------------------------------------
        if self._fetch_slots_used >= cfg.fetch_width:
            self._next_fetch_cycle += 1
            self._fetch_slots_used = 0
        fetch_cycle = self._next_fetch_cycle
        hierarchy = self.hierarchy
        if pc >> 3 == hierarchy._last_insn_line:
            hierarchy.l1i.stats.hits += 1  # same-line fetch: guaranteed hit
        else:
            icache_done = hierarchy.access_insn(pc, fetch_cycle)
            if icache_done > fetch_cycle + self._l1_latency:
                fetch_cycle = icache_done
                self._next_fetch_cycle = fetch_cycle
                self._fetch_slots_used = 0
        self._fetch_slots_used += 1
        if self._tracing:
            self.tracer.emit("fetch", "core", fetch_cycle,
                             pc=pc, seq=record.seq)
        # ---- dispatch / issue --------------------------------------------
        dispatch = fetch_cycle + cfg.frontend_depth
        rob = self.rob
        oldest = rob._release[rob._next]
        if oldest > dispatch:
            rob.stall_events += 1
            dispatch = oldest
        rs = self.rs
        oldest = rs._release[rs._next]
        if oldest > dispatch:
            rs.stall_events += 1
            dispatch = oldest
        ready = dispatch
        reg_ready = self._reg_ready
        for src in op.src_regs:
            src_ready = reg_ready[src]
            if src_ready > ready:
                ready = src_ready
        issue = self.alus.acquire(ready)
        self._issued_uops += 1
        self.stats.stores += 1
        complete = issue + 1
        self.forwarder.record_store(record.addr, complete)
        # ---- retire ------------------------------------------------------
        retire = complete + 1
        last = self._last_retire_cycle
        if retire < last:
            retire = last
        if retire == last:
            if self._retired_in_cycle >= cfg.retire_width:
                retire += 1
                self._retired_in_cycle = 0
        else:
            self._retired_in_cycle = 0
        self._retired_in_cycle += 1
        self._last_retire_cycle = retire
        index = rob._next
        rob._release[index] = retire
        rob._next = (index + 1) % rob.capacity
        index = rs._next
        rs._release[index] = issue + 1
        rs._next = (index + 1) % rs.capacity
        # stores write the D-cache at retire
        self.dcache_ports.use_core(retire)
        hierarchy.access_data(record.addr, retire, is_write=True)
        retired_regs = self.retired_regs
        for dst in op.dst_regs:
            retired_regs[dst] = record.dst_value
        if self._tracing:
            self.tracer.emit("retire", "core", retire,
                             pc=pc, seq=record.seq)
        on_retire = self._on_retire
        if on_retire is not None:
            on_retire(record, retire, False, retired_regs)
        # periodic pruning of per-cycle trackers
        if record.seq & 0x3FF == 0:
            low_water = fetch_cycle - 512
            if low_water < 0:
                low_water = 0
            self.alus.prune(low_water)
            self.dcache_ports.prune(low_water)

    def _process_jump(self, record: DynamicUop) -> None:
        cfg = self.config
        op = record.uop
        pc = record.pc
        # ---- fetch -------------------------------------------------------
        if self._fetch_slots_used >= cfg.fetch_width:
            self._next_fetch_cycle += 1
            self._fetch_slots_used = 0
        fetch_cycle = self._next_fetch_cycle
        hierarchy = self.hierarchy
        if pc >> 3 == hierarchy._last_insn_line:
            hierarchy.l1i.stats.hits += 1  # same-line fetch: guaranteed hit
        else:
            icache_done = hierarchy.access_insn(pc, fetch_cycle)
            if icache_done > fetch_cycle + self._l1_latency:
                fetch_cycle = icache_done
                self._next_fetch_cycle = fetch_cycle
                self._fetch_slots_used = 0
        self._fetch_slots_used += 1
        if self._tracing:
            self.tracer.emit("fetch", "core", fetch_cycle,
                             pc=pc, seq=record.seq)
        # ---- dispatch / issue --------------------------------------------
        dispatch = fetch_cycle + cfg.frontend_depth
        rob = self.rob
        oldest = rob._release[rob._next]
        if oldest > dispatch:
            rob.stall_events += 1
            dispatch = oldest
        rs = self.rs
        oldest = rs._release[rs._next]
        if oldest > dispatch:
            rs.stall_events += 1
            dispatch = oldest
        ready = dispatch
        reg_ready = self._reg_ready
        for src in op.src_regs:
            src_ready = reg_ready[src]
            if src_ready > ready:
                ready = src_ready
        issue = self.alus.acquire(ready)
        self._issued_uops += 1
        complete = issue + op.latency
        # an unconditional (always taken, never mispredicted) branch ends
        # the fetch group
        if self._next_fetch_cycle < fetch_cycle + 1:
            self._next_fetch_cycle = fetch_cycle + 1
        self._fetch_slots_used = cfg.fetch_width
        # ---- retire ------------------------------------------------------
        retire = complete + 1
        last = self._last_retire_cycle
        if retire < last:
            retire = last
        if retire == last:
            if self._retired_in_cycle >= cfg.retire_width:
                retire += 1
                self._retired_in_cycle = 0
        else:
            self._retired_in_cycle = 0
        self._retired_in_cycle += 1
        self._last_retire_cycle = retire
        index = rob._next
        rob._release[index] = retire
        rob._next = (index + 1) % rob.capacity
        index = rs._next
        rs._release[index] = issue + 1
        rs._next = (index + 1) % rs.capacity
        retired_regs = self.retired_regs
        for dst in op.dst_regs:
            retired_regs[dst] = record.dst_value
        if self._tracing:
            self.tracer.emit("retire", "core", retire,
                             pc=pc, seq=record.seq)
        on_retire = self._on_retire
        if on_retire is not None:
            on_retire(record, retire, False, retired_regs)
        # periodic pruning of per-cycle trackers
        if record.seq & 0x3FF == 0:
            low_water = fetch_cycle - 512
            if low_water < 0:
                low_water = 0
            self.alus.prune(low_water)
            self.dcache_ports.prune(low_water)

    def _process_branch(self, record: DynamicUop) -> None:
        cfg = self.config
        op = record.uop
        pc = record.pc
        # ---- fetch -------------------------------------------------------
        if self._fetch_slots_used >= cfg.fetch_width:
            self._next_fetch_cycle += 1
            self._fetch_slots_used = 0
        fetch_cycle = self._next_fetch_cycle
        hierarchy = self.hierarchy
        if pc >> 3 == hierarchy._last_insn_line:
            hierarchy.l1i.stats.hits += 1  # same-line fetch: guaranteed hit
        else:
            icache_done = hierarchy.access_insn(pc, fetch_cycle)
            if icache_done > fetch_cycle + self._l1_latency:
                fetch_cycle = icache_done
                self._next_fetch_cycle = fetch_cycle
                self._fetch_slots_used = 0
        self._fetch_slots_used += 1
        if self._tracing:
            self.tracer.emit("fetch", "core", fetch_cycle,
                             pc=pc, seq=record.seq)

        # ---- branch prediction at fetch ----------------------------------
        stats = self.stats
        taken = record.taken
        stats.cond_branches += 1
        stats.branch_counts[pc] += 1
        if taken:
            stats.taken_branches += 1
        # predict and train in one call: no hook reads the baseline, so
        # training it before fetch_prediction changes nothing
        tage_pred = self.baseline(pc, taken)
        mispredicted = tage_pred != taken
        if mispredicted:
            stats.baseline_mispredicts += 1
        source = "tage"
        if self._on_retire is not None:
            # default no-op hooks would return (tage_pred, "tage"): skip them
            final_pred, source = self._runahead.fetch_prediction(
                pc, fetch_cycle, tage_pred)
            if source == "dce":
                stats.dce_predictions_used += 1
            mispredicted = final_pred != taken
        if mispredicted:
            stats.mispredicts += 1
            stats.branch_mispredicts[pc] += 1

        # ---- dispatch / issue --------------------------------------------
        dispatch = fetch_cycle + cfg.frontend_depth
        rob = self.rob
        oldest = rob._release[rob._next]
        if oldest > dispatch:
            rob.stall_events += 1
            dispatch = oldest
        rs = self.rs
        oldest = rs._release[rs._next]
        if oldest > dispatch:
            rs.stall_events += 1
            dispatch = oldest
        ready = dispatch
        reg_ready = self._reg_ready
        for src in op.src_regs:
            src_ready = reg_ready[src]
            if src_ready > ready:
                ready = src_ready
        issue = self.alus.acquire(ready)
        self._issued_uops += 1
        complete = issue + op.latency

        # ---- branch resolution / redirect --------------------------------
        if self._tracing:
            self.tracer.emit("branch_resolve", "core", complete,
                             pc=pc, taken=taken,
                             mispredicted=mispredicted, source=source)
        if mispredicted:
            resume = complete + cfg.mispredict_penalty
            if resume > self._next_fetch_cycle:
                self._next_fetch_cycle = resume
                self._fetch_slots_used = 0
        if self._on_retire is not None:
            budget = min(cfg.wpb_max_distance,
                         max(8, (complete - fetch_cycle) * cfg.fetch_width))
            self._runahead.on_branch_resolved(
                record, complete, mispredicted, self.retired_regs, budget)
        if taken and not mispredicted:
            # a predicted-taken branch ends the fetch group
            if self._next_fetch_cycle < fetch_cycle + 1:
                self._next_fetch_cycle = fetch_cycle + 1
            self._fetch_slots_used = cfg.fetch_width

        # ---- retire ------------------------------------------------------
        retire = complete + 1
        last = self._last_retire_cycle
        if retire < last:
            retire = last
        if retire == last:
            if self._retired_in_cycle >= cfg.retire_width:
                retire += 1
                self._retired_in_cycle = 0
        else:
            self._retired_in_cycle = 0
        self._retired_in_cycle += 1
        self._last_retire_cycle = retire
        index = rob._next
        rob._release[index] = retire
        rob._next = (index + 1) % rob.capacity
        index = rs._next
        rs._release[index] = issue + 1
        rs._next = (index + 1) % rs.capacity
        retired_regs = self.retired_regs
        for dst in op.dst_regs:
            retired_regs[dst] = record.dst_value
        if self._tracing:
            self.tracer.emit("retire", "core", retire,
                             pc=pc, seq=record.seq)
        on_retire = self._on_retire
        if on_retire is not None:
            on_retire(record, retire, mispredicted, retired_regs)
        # periodic pruning of per-cycle trackers
        if record.seq & 0x3FF == 0:
            low_water = fetch_cycle - 512
            if low_water < 0:
                low_water = 0
            self.alus.prune(low_water)
            self.dcache_ports.prune(low_water)
