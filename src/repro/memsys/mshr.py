"""Miss Status Holding Registers.

Bounds the number of overlapping misses (the memory-level-parallelism cap
Table 1's 64-entry memory queue and Table 2's 48/64-entry DCE MSHRs model).
In the scoreboard-style timing model we track outstanding (line, ready)
pairs: a new miss merges with an in-flight line, and when all registers are
busy the new miss is delayed until the earliest one retires.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Tuple


class MshrFile:
    """Outstanding-miss tracker with merge and capacity-delay semantics.

    ``_outstanding`` maps each line in flight to its ready cycle, in the
    order the lines were allocated.  A heap of ``(ready, order, line)``
    entries, ``order`` being the line's allocation number, finds the
    finished and the earliest lines without scanning that map; an entry
    whose line has since been retired, re-timed or re-allocated is stale
    and skipped.  Among equal ready cycles the earliest allocated line
    goes first, as it would in a scan of the map.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("MSHR capacity must be positive")
        self.capacity = capacity
        self._outstanding: Dict[int, int] = {}  # line -> ready cycle
        self._order: Dict[int, int] = {}  # line -> allocation number
        self._heap: List[Tuple[int, int, int]] = []
        self._allocations = 0
        self.merges = 0
        self.capacity_stalls = 0

    def outstanding_count(self, cycle: int) -> int:
        """Number of misses still in flight at ``cycle`` (also prunes)."""
        heap = self._heap
        outstanding = self._outstanding
        orders = self._order
        while heap and heap[0][0] <= cycle:
            ready, order, line = heappop(heap)
            if outstanding.get(line) == ready and orders[line] == order:
                del outstanding[line]
                del orders[line]
        return len(outstanding)

    def lookup(self, line: int, cycle: int) -> int:
        """If ``line`` is already in flight at ``cycle``, return its ready
        cycle; else -1."""
        ready = self._outstanding.get(line, -1)
        if ready > cycle:
            self.merges += 1
            return ready
        return -1

    def allocate(self, line: int, cycle: int, ready: int) -> int:
        """Allocate an MSHR for a new miss starting at ``cycle``.

        Returns the (possibly delayed) ready cycle.  If the file is full the
        miss is charged the wait until the earliest outstanding miss retires.
        """
        outstanding = self._outstanding
        orders = self._order
        heap = self._heap
        if self.outstanding_count(cycle) >= self.capacity:
            while True:
                earliest, order, victim = heappop(heap)
                if outstanding.get(victim) == earliest \
                        and orders[victim] == order:
                    break
            if earliest > cycle:
                ready += earliest - cycle
            self.capacity_stalls += 1
            # retire the earliest to make room
            del outstanding[victim]
            del orders[victim]
        order = orders.get(line)
        if order is None:
            order = orders[line] = self._allocations
            self._allocations += 1
        outstanding[line] = ready
        heappush(heap, (ready, order, line))
        return ready
