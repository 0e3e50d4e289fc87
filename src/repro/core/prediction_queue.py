"""Prediction queues (§4.2).

Per-branch FIFOs that carry DCE-computed outcomes to the fetch stage.  Three
pointers maintain each queue: *DCE push* (slots are allocated at chain
initiation, in program order, and filled at chain completion), *core fetch*
(consumption at fetch — a slot consumed before its chain finishes is a
**late** prediction), and *core retire* (frees capacity as branches retire).
The paper checkpoints the fetch pointer at every branch to reinsert
predictions consumed on the wrong path; the trace-driven core fetches only
committed branches, so a consumed prediction is never reinserted.  A
divergence resync drops the unconsumed slots
(:meth:`PredictionQueue.flush_unconsumed`).

A 2-bit throttle counter per queue suppresses the DCE when it loses to TAGE
(incremented when DCE right & TAGE wrong; decremented on the opposite;
negative means ignore DCE).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.telemetry import NULL_TRACER

#: Classification of a fetch-time queue consumption (Figure 12 categories).
INACTIVE = "inactive"
LATE = "late"
READY = "ready"


class PredictionEntry:
    """One queue slot: allocated at initiation, filled at chain completion."""

    __slots__ = ("value", "available_cycle")

    def __init__(self):
        self.value: Optional[bool] = None
        self.available_cycle: Optional[int] = None


class PredictionQueue:
    """One per-branch prediction FIFO with push/fetch/retire pointers."""

    THROTTLE_MIN = -2
    THROTTLE_MAX = 1

    #: Retirements between one-step throttle decays toward zero (lets a
    #: suppressed chain lineage periodically retry).
    THROTTLE_DECAY_PERIOD = 64

    def __init__(self, capacity: int, branch_pc: int = -1, tracer=None):
        if capacity < 1:
            raise ValueError("queue capacity must be positive")
        self.capacity = capacity
        self.branch_pc = branch_pc
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._tracing = self.tracer.enabled
        self._entries: Dict[int, PredictionEntry] = {}
        self.push_ptr = 0     # next slot to allocate
        self.fetch_ptr = 0    # next slot the core consumes
        self.retire_ptr = 0   # oldest slot still occupied
        self.throttle = 0
        self._retires_since_decay = 0
        # lifetime activity (telemetry export; pointers only track live slots)
        self.total_allocated = 0
        self.total_filled = 0
        self.total_consumed = 0
        self.total_flushed = 0

    # -- slot lifecycle -----------------------------------------------------

    def occupancy(self) -> int:
        return self.push_ptr - self.retire_ptr

    def allocate(self) -> int:
        """Allocate the next slot at chain initiation; -1 if full."""
        if self.push_ptr - self.retire_ptr >= self.capacity:
            return -1
        slot = self.push_ptr
        self._entries[slot] = PredictionEntry()
        self.push_ptr += 1
        self.total_allocated += 1
        return slot

    def fill(self, slot: int, value: bool, available_cycle: int) -> None:
        """Deposit the chain's computed outcome (even if already consumed)."""
        entry = self._entries.get(slot)
        if entry is None:
            return  # slot flushed before the chain finished
        entry.value = value
        entry.available_cycle = available_cycle
        self.total_filled += 1
        if self._tracing:
            self.tracer.emit("pq_push", "pq", available_cycle,
                             pc=self.branch_pc, slot=slot, value=value)

    def consume(self, cycle: int) -> Tuple[str, Optional[bool]]:
        """Core fetch consumes the next prediction; returns (category, value)."""
        if self.fetch_ptr >= self.push_ptr:
            return INACTIVE, None
        entry = self._entries[self.fetch_ptr]
        self.fetch_ptr += 1
        self.total_consumed += 1
        category = READY
        if entry.value is None or entry.available_cycle > cycle:
            category = LATE
        if self._tracing:
            self.tracer.emit("pq_pop", "pq", cycle, pc=self.branch_pc,
                             kind=category, value=entry.value)
        return category, entry.value

    def retire_one(self) -> None:
        """Branch retired: free the oldest slot; slowly decay the throttle."""
        if self.retire_ptr < self.fetch_ptr:
            self._entries.pop(self.retire_ptr, None)
            self.retire_ptr += 1
        self._retires_since_decay += 1
        if self._retires_since_decay >= self.THROTTLE_DECAY_PERIOD:
            self._retires_since_decay = 0
            if self.throttle < 0:
                self.throttle += 1
            elif self.throttle > 0:
                self.throttle -= 1

    # -- recovery --------------------------------------------------------------

    def flush_unconsumed(self) -> int:
        """Divergence resync: drop every allocated-but-unconsumed slot."""
        dropped = 0
        for slot in range(self.fetch_ptr, self.push_ptr):
            if self._entries.pop(slot, None) is not None:
                dropped += 1
        self.push_ptr = self.fetch_ptr
        self.total_flushed += dropped
        return dropped

    # -- throttling --------------------------------------------------------------

    def update_throttle(self, dce_correct: bool, tage_correct: bool) -> None:
        if dce_correct and not tage_correct:
            self.throttle = min(self.THROTTLE_MAX, self.throttle + 1)
        elif tage_correct and not dce_correct:
            self.throttle = max(self.THROTTLE_MIN, self.throttle - 1)

    @property
    def throttled(self) -> bool:
        return self.throttle < 0


class PredictionQueueFile:
    """The DCE's set of per-branch prediction queues (16 in Mini)."""

    def __init__(self, num_queues: int = 16, entries_per_queue: int = 256,
                 tracer=None):
        self.num_queues = num_queues
        self.entries_per_queue = entries_per_queue
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._queues: OrderedDict = OrderedDict()  # branch_pc -> queue
        #: Activity of queues that were reassigned to another branch.
        self._retired_totals = {"allocated": 0, "filled": 0,
                                "consumed": 0, "flushed": 0}

    def get(self, branch_pc: int) -> Optional[PredictionQueue]:
        queue = self._queues.get(branch_pc)
        if queue is not None:
            self._queues.move_to_end(branch_pc)
        return queue

    def get_or_assign(self, branch_pc: int) -> Optional[PredictionQueue]:
        """Return the branch's queue, assigning one if available.

        When all queues are taken, the least-recently-used *idle* queue
        (no outstanding entries) is reassigned; with every queue busy the
        branch goes uncovered, matching the fixed 16-queue budget.
        """
        queue = self._queues.get(branch_pc)
        if queue is not None:
            self._queues.move_to_end(branch_pc)
            return queue
        if len(self._queues) < self.num_queues:
            queue = PredictionQueue(self.entries_per_queue, branch_pc,
                                    self.tracer)
            self._queues[branch_pc] = queue
            return queue
        for victim_pc, victim in self._queues.items():
            if victim.occupancy() == 0:
                self._absorb_totals(victim)
                del self._queues[victim_pc]
                queue = PredictionQueue(self.entries_per_queue, branch_pc,
                                        self.tracer)
                self._queues[branch_pc] = queue
                return queue
        return None

    # -- telemetry -----------------------------------------------------------

    def _absorb_totals(self, queue: PredictionQueue) -> None:
        totals = self._retired_totals
        totals["allocated"] += queue.total_allocated
        totals["filled"] += queue.total_filled
        totals["consumed"] += queue.total_consumed
        totals["flushed"] += queue.total_flushed

    def register_into(self, scope) -> None:
        """Publish into a ``pq.*`` :class:`~repro.telemetry.StatScope`."""
        scope.gauge("queues").set(self.num_queues)
        scope.gauge("entries_per_queue").set(self.entries_per_queue)
        scope.gauge("queues_assigned").set(len(self._queues))
        totals = dict(self._retired_totals)
        occupancy = scope.histogram("occupancy")
        throttled = 0
        for queue in self._queues.values():
            totals["allocated"] += queue.total_allocated
            totals["filled"] += queue.total_filled
            totals["consumed"] += queue.total_consumed
            totals["flushed"] += queue.total_flushed
            occupancy.record(queue.occupancy())
            throttled += queue.throttled
        for name, value in sorted(totals.items()):
            scope.counter(name).set(value)
        scope.gauge("queues_throttled").set(throttled)
