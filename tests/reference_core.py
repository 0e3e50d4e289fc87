"""Reference out-of-order core timing model (per-uop handler).

This is :class:`repro.uarch.core.CoreModel` as it stood before its timing
loop was folded into one pass: ``run`` calls one ``_process(record)``
method per committed uop, every counter lives on its object, and every
retirement calls the attached hooks' ``on_retire`` (the idle-retire
contract did not exist yet).  ``tests/test_core_differential.py`` drives
it and the production core over generated programs and requires
bit-identical per-uop timing, statistics and resource counters.  Only the
tests import it, so it lives here rather than in the package.

Do not optimize this module: its value is being the slow, obviously
correct spelling of the pipeline.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.emulator.trace import DynamicUop
from repro.isa.registers import NUM_ARCH_REGS
from repro.isa.uop import KIND_COND_BRANCH, KIND_JUMP, KIND_LOAD, KIND_STORE
from repro.memsys.hierarchy import MemoryHierarchy
from repro.memsys.port import PortTracker
from repro.predictors.base import BranchPredictor
from repro.telemetry import NULL_TRACER
from repro.uarch.config import CoreConfig
from repro.uarch.core import RunaheadHooks
from repro.uarch.lsq import StoreForwarder
from repro.uarch.resources import FuTracker, RingTracker
from repro.uarch.stats import CoreStats


def _perfect_baseline(pc: int, taken: bool) -> bool:
    return taken


class ReferenceCoreModel:
    """The per-uop core: ``run`` calls :meth:`_process` once per record,
    and every retirement reaches the hooks' ``on_retire``."""

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
        process = self._process
        count = 0
        warmup_end_cycle = 0
        warmed_up = False
        for record in stream:
            if count == warmup and warmup:
                warmup_end_cycle = self._last_retire_cycle
                self._reset_stats()
                warmed_up = True
            process(record)
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
    # One handler for every uop kind.  It inlines the fetch / dispatch /
    # issue / retire skeleton — including the bodies of
    # ``RingTracker.earliest_free``/``allocate`` and the hierarchy's
    # same-line I-fetch fast path — because at tens of thousands of dynamic
    # uops per region even the helper-call overhead is a measurable slice of
    # the timing phase.  The precomputed ``Uop.kind`` tag selects the
    # per-kind work at three points only: branch prediction at fetch, issue
    # to completion, and the store's D-cache write at retire.

    def _process(self, record: DynamicUop) -> None:
        cfg = self.config
        op = record.uop
        kind = op.kind
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
        mispredicted = False
        if kind == KIND_COND_BRANCH:
            # ---- branch prediction at fetch ------------------------------
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
                # default no-op hooks would return (tage_pred, "tage"): skip
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
        # ---- issue to completion -----------------------------------------
        if kind == KIND_LOAD:
            self.stats.loads += 1
            self.dcache_ports.use_core(issue)
            complete = self.forwarder.try_forward(record.addr, issue)
            if complete < 0:
                complete = hierarchy.access_data(record.addr, issue)
            for dst in op.dst_regs:
                reg_ready[dst] = complete
        elif kind == KIND_STORE:
            self.stats.stores += 1
            complete = issue + 1
            self.forwarder.record_store(record.addr, complete)
        elif kind == KIND_COND_BRANCH:
            complete = issue + op.latency
            # ---- branch resolution / redirect ----------------------------
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
                             max(8, (complete - fetch_cycle)
                                 * cfg.fetch_width))
                self._runahead.on_branch_resolved(
                    record, complete, mispredicted, self.retired_regs,
                    budget)
            if taken and not mispredicted:
                # a predicted-taken branch ends the fetch group
                if self._next_fetch_cycle < fetch_cycle + 1:
                    self._next_fetch_cycle = fetch_cycle + 1
                self._fetch_slots_used = cfg.fetch_width
        elif kind == KIND_JUMP:
            complete = issue + op.latency
            # an unconditional (always taken, never mispredicted) branch
            # ends the fetch group
            if self._next_fetch_cycle < fetch_cycle + 1:
                self._next_fetch_cycle = fetch_cycle + 1
            self._fetch_slots_used = cfg.fetch_width
        else:  # KIND_ALU; KIND_HALT never reaches the committed stream
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
        if kind == KIND_STORE:
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
            on_retire(record, retire, mispredicted, retired_regs)
        # periodic pruning of per-cycle trackers
        if record.seq & 0x3FF == 0:
            low_water = fetch_cycle - 512
            if low_water < 0:
                low_water = 0
            self.alus.prune(low_water)
            self.dcache_ports.prune(low_water)
