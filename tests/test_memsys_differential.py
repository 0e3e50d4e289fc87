"""The indexed stream prefetcher and heap-pruned MSHR file against scans.

``StreamPrefetcher`` finds a demand access's stream through a
``last_line`` index and takes its victim from an LRU order, and
``MshrFile`` prunes finished misses from a heap of ready cycles.  The
linear-scan classes below are the spellings they replaced: every access
scans all streams in allocation order, and every allocation rebuilds a
list of the finished misses.  Random line and cycle sequences — with
lines revisited so several streams end on the same line, ready cycles
tied, and enough misses in flight to stall on capacity — must give the
same prefetches, merges, ready cycles and final state.
"""

from typing import Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsys.mshr import MshrFile
from repro.memsys.prefetcher import StreamPrefetcher


class _ScanStream:
    __slots__ = ("last_line", "direction", "confidence", "lru")

    def __init__(self, line: int, lru: int):
        self.last_line = line
        self.direction = 0
        self.confidence = 0
        self.lru = lru


class ScanPrefetcher:
    """Every access scans all streams; the victim is the minimum ``lru``."""

    TRAIN_THRESHOLD = 2

    def __init__(self, num_streams=64, distance=16, degree=2, window=4):
        self.num_streams = num_streams
        self.distance = distance
        self.degree = degree
        self.window = window
        self._streams: List[_ScanStream] = []
        self._clock = 0
        self.issued = 0

    def train(self, line: int) -> List[int]:
        self._clock += 1
        for stream in self._streams:
            delta = line - stream.last_line
            if delta == 0:
                stream.lru = self._clock
                return []
            if 0 < abs(delta) <= self.window:
                direction = 1 if delta > 0 else -1
                if direction == stream.direction:
                    stream.confidence = min(stream.confidence + 1, 7)
                else:
                    stream.direction = direction
                    stream.confidence = 1
                stream.last_line = line
                stream.lru = self._clock
                if stream.confidence >= self.TRAIN_THRESHOLD:
                    prefetches = [line + direction * (self.distance + i)
                                  for i in range(self.degree)]
                    self.issued += len(prefetches)
                    return prefetches
                return []
        if len(self._streams) < self.num_streams:
            self._streams.append(_ScanStream(line, self._clock))
            return []
        victim = min(self._streams, key=lambda s: s.lru)
        victim.last_line = line
        victim.direction = 0
        victim.confidence = 0
        victim.lru = self._clock
        return []


class ScanMshrFile:
    """Every allocation rebuilds the list of finished misses."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._outstanding: Dict[int, int] = {}
        self.merges = 0
        self.capacity_stalls = 0

    def outstanding_count(self, cycle: int) -> int:
        finished = [line for line, ready in self._outstanding.items()
                    if ready <= cycle]
        for line in finished:
            del self._outstanding[line]
        return len(self._outstanding)

    def lookup(self, line: int, cycle: int) -> int:
        ready = self._outstanding.get(line, -1)
        if ready > cycle:
            self.merges += 1
            return ready
        return -1

    def allocate(self, line: int, cycle: int, ready: int) -> int:
        if self.outstanding_count(cycle) >= self.capacity:
            earliest = min(self._outstanding.values())
            delay = max(0, earliest - cycle)
            self.capacity_stalls += 1
            ready += delay
            for line_key, line_ready in list(self._outstanding.items()):
                if line_ready == earliest:
                    del self._outstanding[line_key]
                    break
        self._outstanding[line] = ready
        return ready


def stream_state(prefetcher) -> list:
    return [(s.last_line, s.direction, s.confidence)
            for s in prefetcher._streams]


def lru_victims(prefetcher, far: int) -> list:
    """Force every stream out, far from all lines, in victim order."""
    order = []
    for step in range(prefetcher.num_streams):
        line = far + step * 1000
        prefetcher.train(line)
        order.append(next(index for index, stream
                          in enumerate(prefetcher._streams)
                          if stream.last_line == line))
    return order


class TestPrefetcherDifferential:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=5),
           st.lists(st.tuples(st.integers(min_value=0, max_value=60),
                              st.integers(min_value=-6, max_value=6)),
                    max_size=300))
    def test_random_accesses(self, streams, window, steps):
        fast = StreamPrefetcher(num_streams=streams, distance=3, window=window)
        scan = ScanPrefetcher(num_streams=streams, distance=3, window=window)
        line = 0
        for jump, step in steps:
            # short strides build streams; a jump now and then leaves one
            line = jump * 7 if jump % 5 == 0 else line + step
            assert fast.train(line) == scan.train(line)
            assert stream_state(fast) == stream_state(scan)
        assert fast.issued == scan.issued
        far = 10 ** 9
        assert lru_victims(fast, far) == lru_victims(scan, far)

    def test_duplicate_last_lines_go_to_the_first_stream(self):
        fast, scan = StreamPrefetcher(), ScanPrefetcher()
        for line in (10, 20, 14, 16, 18, 20):
            assert fast.train(line) == scan.train(line)
        # the first stream ran up onto the second one's line
        assert stream_state(fast) == stream_state(scan) \
            == [(20, 1, 4), (20, 0, 0)]
        for line in (20, 22, 21, 19):
            assert fast.train(line) == scan.train(line)
        assert stream_state(fast) == stream_state(scan) \
            == [(19, -1, 2), (20, 0, 0)]


class TestMshrDifferential:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=1, max_value=6),
           st.lists(st.tuples(st.integers(min_value=0, max_value=12),
                              st.integers(min_value=-3, max_value=8),
                              st.integers(min_value=0, max_value=6),
                              st.booleans()),
                    max_size=300))
    def test_random_misses(self, capacity, steps):
        fast, scan = MshrFile(capacity), ScanMshrFile(capacity)
        cycle = 0
        for line, advance, latency, probe in steps:
            # cycles mostly advance but may step back (DCE accesses run
            # ahead of the core); few distinct latencies tie ready cycles
            cycle = max(0, cycle + advance)
            if probe:
                assert fast.lookup(line, cycle) == scan.lookup(line, cycle)
                assert fast.outstanding_count(cycle) \
                    == scan.outstanding_count(cycle)
            else:
                ready = cycle + 10 * latency
                assert fast.allocate(line, cycle, ready) \
                    == scan.allocate(line, cycle, ready)
            assert list(fast._outstanding.items()) \
                == list(scan._outstanding.items())
        assert (fast.merges, fast.capacity_stalls) \
            == (scan.merges, scan.capacity_stalls)

    def test_capacity_stall_retires_the_first_allocated_of_a_tie(self):
        fast, scan = MshrFile(4), ScanMshrFile(4)
        for mshrs in (fast, scan):
            mshrs.allocate(5, 0, 50)
            mshrs.allocate(6, 0, 30)
            mshrs.allocate(7, 0, 40)
            # re-timing a line in flight keeps its place in the order
            mshrs.allocate(6, 1, 40)
            mshrs.allocate(8, 2, 60)
            # full: lines 6 and 7 tie at 40, and 6 was allocated first
            assert mshrs.allocate(9, 3, 30) == 67
        assert list(fast._outstanding.items()) \
            == list(scan._outstanding.items()) \
            == [(5, 50), (7, 40), (8, 60), (9, 67)]
        assert fast.capacity_stalls == scan.capacity_stalls == 1
