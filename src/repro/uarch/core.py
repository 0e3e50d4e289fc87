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

from typing import Callable, Iterable, Optional, Tuple, Union

from repro.emulator.trace import DynamicUop
from repro.isa.registers import NUM_ARCH_REGS
from repro.isa.uop import (
    KIND_ALU,
    KIND_COND_BRANCH,
    KIND_JUMP,
    KIND_LOAD,
    KIND_STORE,
)
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

    The idle-retire contract lets a hook skip the per-uop call where it
    would do almost nothing.  ``idle_retire`` is None, or a callable that
    takes one retired record.  While ``watching`` is false, the core hands
    each retiring uop that is not a conditional branch to ``idle_retire``
    instead of calling :meth:`on_retire`, so ``idle_retire`` must do
    exactly what :meth:`on_retire` would do with that uop, and a hook that
    sets it keeps ``watching`` true whenever that is not so.  With the
    default None every retirement reaches :meth:`on_retire`.
    """

    idle_retire: Optional[Callable[[DynamicUop], None]] = None
    watching = True

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
                 baseline: Union[bytes, Callable[[int, bool], bool],
                                 None] = None):
        self.config = config or CoreConfig()
        self.hierarchy = hierarchy or MemoryHierarchy()
        self._l1_latency = self.hierarchy.config.l1_latency
        #: ``baseline(pc, taken)``: the baseline predictor's direction for
        #: one committed conditional branch, trained on ``taken`` before it
        #: returns.  Defaults to ``predictor.observe`` (a perfect baseline
        #: when there is no predictor).  ``simulate()`` may pass a recorded
        #: prediction column instead (``bytes``, one prediction per
        #: conditional branch in region order), which ``run`` reads
        #: without a call per branch.
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

    # -- the timing loop ---------------------------------------------------

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

        This is the one per-uop loop of the timing phase.  It inlines the
        fetch / dispatch / issue / retire skeleton for every uop kind,
        with the fetch and retire state, the ROB/RS rings, the register
        scoreboards, the store-forwarding table and the ALU and D-cache
        port fast paths held in locals: at tens of thousands of dynamic
        uops per region even a helper call per uop is a measurable slice
        of the timing phase.  The precomputed ``Uop.kind`` tag selects the
        per-kind work at three points only: branch prediction at fetch,
        issue to completion, and the store's D-cache write at retire.
        Counters that nothing reads mid-run (core statistics, ROB/RS
        stalls, fast-path ALU and port uses, same-line L1I hits, store
        forwards) are summed locally and written back once when the
        stream ends.  The ALU and port usage maps stay live: Branch
        Runahead's engine books the same trackers between two uops.
        """
        if initial_regs is not None:
            self.retired_regs = list(initial_regs)
        cfg = self.config
        fetch_width = cfg.fetch_width
        frontend_depth = cfg.frontend_depth
        retire_width = cfg.retire_width
        mispredict_penalty = cfg.mispredict_penalty
        wpb_max_distance = cfg.wpb_max_distance
        l1_latency = self._l1_latency
        hierarchy = self.hierarchy
        access_insn = hierarchy.access_insn
        access_data = hierarchy.access_data
        # only access_insn moves the hierarchy's last fetched line, and only
        # this loop calls it while the stream runs
        last_insn_line = hierarchy._last_insn_line
        baseline = self.baseline
        column = (map(bool, baseline).__next__
                  if isinstance(baseline, bytes) else None)
        tracing = self._tracing
        emit = self.tracer.emit
        hooks = self._runahead
        on_retire = self._on_retire
        attached = on_retire is not None
        fetch_prediction = hooks.fetch_prediction
        on_branch_resolved = hooks.on_branch_resolved
        idle_retire = hooks.idle_retire
        forwarder = self.forwarder
        forwarded = forwarder._stores
        forward_get = forwarded.get
        forward_capacity = forwarder.capacity
        forward_latency = forwarder.forward_latency
        alus = self.alus
        alu_count = alus.count
        alu_usage = alus._usage
        alu_acquire = alus.acquire
        ports = self.dcache_ports
        port_usage = ports._usage
        rob = self.rob
        rob_release = rob._release
        rob_next = rob._next
        rob_capacity = rob.capacity
        rs = self.rs
        rs_release = rs._release
        rs_next = rs._next
        rs_capacity = rs.capacity
        reg_ready = self._reg_ready
        retired_regs = self.retired_regs
        next_fetch = self._next_fetch_cycle
        slots_used = self._fetch_slots_used
        last_retire = self._last_retire_cycle
        retired_in_cycle = self._retired_in_cycle
        stats = self.stats
        branch_counts = stats.branch_counts
        branch_mispredicts = stats.branch_mispredicts
        cond_branches = taken_branches = mispredicts = 0
        baseline_mispredicts = dce_used = loads = stores = 0
        rob_stalls = rs_stalls = alu_fast = port_uses = 0
        l1i_hits = forwards = 0
        count = 0
        warmup_end_cycle = 0
        warmed_up = False
        try:
            for record in stream:
                if count == warmup and warmup:
                    warmup_end_cycle = last_retire
                    self.stats = stats = CoreStats()
                    branch_counts = stats.branch_counts
                    branch_mispredicts = stats.branch_mispredicts
                    cond_branches = taken_branches = mispredicts = 0
                    baseline_mispredicts = dce_used = loads = stores = 0
                    warmed_up = True
                count += 1
                op = record.uop
                kind = op.kind
                pc = record.pc
                # ---- fetch ---------------------------------------------------
                if slots_used >= fetch_width:
                    next_fetch += 1
                    slots_used = 0
                fetch_cycle = next_fetch
                if pc >> 3 == last_insn_line:
                    l1i_hits += 1  # same-line fetch: guaranteed hit
                else:
                    icache_done = access_insn(pc, fetch_cycle)
                    last_insn_line = pc >> 3
                    if icache_done > fetch_cycle + l1_latency:
                        fetch_cycle = next_fetch = icache_done
                        slots_used = 0
                slots_used += 1
                if tracing:
                    emit("fetch", "core", fetch_cycle, pc=pc, seq=record.seq)
                mispredicted = False
                if kind == KIND_COND_BRANCH:
                    # ---- branch prediction at fetch --------------------------
                    taken = record.taken
                    cond_branches += 1
                    branch_counts[pc] += 1
                    if taken:
                        taken_branches += 1
                    # predict and train in one call: no hook reads the
                    # baseline, so training it before fetch_prediction
                    # changes nothing
                    if column is None:
                        tage_pred = baseline(pc, taken)
                    else:
                        tage_pred = column()
                    mispredicted = tage_pred != taken
                    if mispredicted:
                        baseline_mispredicts += 1
                    source = "tage"
                    if attached:
                        # default no-op hooks would return (tage_pred,
                        # "tage"): skipped
                        final_pred, source = fetch_prediction(
                            pc, fetch_cycle, tage_pred)
                        if source == "dce":
                            dce_used += 1
                        mispredicted = final_pred != taken
                    if mispredicted:
                        mispredicts += 1
                        branch_mispredicts[pc] += 1
                # ---- dispatch / issue ----------------------------------------
                ready = fetch_cycle + frontend_depth
                oldest = rob_release[rob_next]
                if oldest > ready:
                    rob_stalls += 1
                    ready = oldest
                oldest = rs_release[rs_next]
                if oldest > ready:
                    rs_stalls += 1
                    ready = oldest
                for src in op.src_regs:
                    src_ready = reg_ready[src]
                    if src_ready > ready:
                        ready = src_ready
                used = alu_usage.get(ready, 0)
                if used < alu_count:
                    # FuTracker.acquire's fast path: the cycle has a free ALU
                    alu_usage[ready] = used + 1
                    alu_fast += 1
                    issue = ready
                else:
                    issue = alu_acquire(ready)
                # ---- issue to completion -------------------------------------
                # a register result is written to the retired register file
                # here, not at retire: nothing between the two reads it
                if kind == KIND_ALU:
                    complete = issue + op.latency
                    value = record.dst_value
                    for dst in op.dst_regs:
                        reg_ready[dst] = complete
                        retired_regs[dst] = value
                elif kind == KIND_LOAD:
                    loads += 1
                    port_usage[issue] = port_usage.get(issue, 0) + 1
                    port_uses += 1
                    addr = record.addr
                    store_ready = forward_get(addr, -1)
                    if store_ready < 0:
                        complete = access_data(addr, issue)
                    else:
                        forwards += 1
                        complete = (issue if issue > store_ready
                                    else store_ready) + forward_latency
                    value = record.dst_value
                    for dst in op.dst_regs:
                        reg_ready[dst] = complete
                        retired_regs[dst] = value
                else:
                    if kind == KIND_COND_BRANCH:
                        complete = issue + op.latency
                        # ---- branch resolution / redirect --------------------
                        if tracing:
                            emit("branch_resolve", "core", complete, pc=pc,
                                 taken=taken, mispredicted=mispredicted,
                                 source=source)
                        if mispredicted:
                            resume = complete + mispredict_penalty
                            if resume > next_fetch:
                                next_fetch = resume
                                slots_used = 0
                        if attached:
                            budget = (complete - fetch_cycle) * fetch_width
                            if budget < 8:
                                budget = 8
                            if budget > wpb_max_distance:
                                budget = wpb_max_distance
                            on_branch_resolved(record, complete, mispredicted,
                                               retired_regs, budget)
                        if taken and not mispredicted:
                            # a predicted-taken branch ends the fetch group
                            if next_fetch <= fetch_cycle:
                                next_fetch = fetch_cycle + 1
                            slots_used = fetch_width
                    elif kind == KIND_STORE:
                        stores += 1
                        complete = issue + 1
                        addr = record.addr
                        if addr in forwarded:
                            del forwarded[addr]
                        elif len(forwarded) >= forward_capacity:
                            forwarded.popitem(last=False)
                        forwarded[addr] = complete
                    elif kind == KIND_JUMP:
                        complete = issue + op.latency
                        # an unconditional (always taken, never mispredicted)
                        # branch ends the fetch group
                        if next_fetch <= fetch_cycle:
                            next_fetch = fetch_cycle + 1
                        slots_used = fetch_width
                    else:  # KIND_HALT never reaches the committed stream
                        complete = issue + op.latency
                    for dst in op.dst_regs:
                        retired_regs[dst] = record.dst_value
                # ---- retire --------------------------------------------------
                retire = complete + 1
                if retire > last_retire:
                    retired_in_cycle = 1
                elif retired_in_cycle >= retire_width:
                    retire = last_retire + 1
                    retired_in_cycle = 1
                else:
                    retire = last_retire
                    retired_in_cycle += 1
                last_retire = retire
                rob_release[rob_next] = retire
                rob_next += 1
                if rob_next == rob_capacity:
                    rob_next = 0
                rs_release[rs_next] = issue + 1
                rs_next += 1
                if rs_next == rs_capacity:
                    rs_next = 0
                if kind == KIND_STORE:
                    # stores write the D-cache at retire
                    port_usage[retire] = port_usage.get(retire, 0) + 1
                    port_uses += 1
                    access_data(record.addr, retire, True)
                if tracing:
                    emit("retire", "core", retire, pc=pc, seq=record.seq)
                if attached:
                    if idle_retire is None or kind == KIND_COND_BRANCH \
                            or hooks.watching:
                        on_retire(record, retire, mispredicted, retired_regs)
                    else:
                        idle_retire(record)
                # periodic pruning of per-cycle trackers
                if record.seq & 0x3FF == 0:
                    low_water = fetch_cycle - 512
                    if low_water < 0:
                        low_water = 0
                    alus.prune(low_water)
                    ports.prune(low_water)
                    alu_usage = alus._usage
                    port_usage = ports._usage
        finally:
            self._next_fetch_cycle = next_fetch
            self._fetch_slots_used = slots_used
            self._last_retire_cycle = last_retire
            self._retired_in_cycle = retired_in_cycle
            rob._next = rob_next
            rob.stall_events += rob_stalls
            rs._next = rs_next
            rs.stall_events += rs_stalls
            alus.total_acquired += alu_fast
            ports.core_uses += port_uses
            hierarchy.l1i.stats.hits += l1i_hits
            forwarder.forwards += forwards
            stats.cond_branches += cond_branches
            stats.taken_branches += taken_branches
            stats.mispredicts += mispredicts
            stats.baseline_mispredicts += baseline_mispredicts
            stats.dce_predictions_used += dce_used
            stats.loads += loads
            stats.stores += stores
        if warmed_up:
            stats.instructions = count - warmup
            stats.cycles = max(1, last_retire - warmup_end_cycle)
        else:
            stats.instructions = count
            stats.cycles = max(1, last_retire)
            stats.warmup_truncated = warmup > 0
        hooks.end_region(last_retire)
        return stats
