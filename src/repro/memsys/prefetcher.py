"""Stream prefetcher (Table 1: 64 streams, distance 16, prefetch into LLC).

Detects ascending or descending line-address streams and, once trained,
issues prefetches ``distance`` lines ahead of the demand stream into the
last-level cache.
"""

from __future__ import annotations

from typing import Dict, List


class _Stream:
    __slots__ = ("last_line", "direction", "confidence", "slot")

    def __init__(self, line: int, slot: int):
        self.last_line = line
        self.direction = 0
        self.confidence = 0
        #: Position in allocation order: the first stream in this order
        #: whose last line is within the window takes an access.
        self.slot = slot


class StreamPrefetcher:
    """Classic multi-stream next-line-run detector.

    An access goes to the first stream, in allocation order, whose last
    line lies within ``window`` lines of it; with none, it allocates a
    stream, replacing the least recently touched one when all are in use.
    Both searches are indexed: streams are found by their last line over
    the ``2 * window + 1`` candidate lines, and the victim is the head of
    an LRU order, so no access scans the streams.
    """

    TRAIN_THRESHOLD = 2

    def __init__(self, num_streams: int = 64, distance: int = 16,
                 degree: int = 2, window: int = 4):
        self.num_streams = num_streams
        self.distance = distance
        self.degree = degree
        self.window = window  # how close a miss must be to extend a stream
        self._streams: List[_Stream] = []
        #: last line -> the streams that end there
        self._by_line: Dict[int, List[_Stream]] = {}
        #: streams from least to most recently touched (values unused)
        self._lru: Dict[_Stream, None] = {}
        self.issued = 0

    def train(self, line: int) -> List[int]:
        """Observe a demand access; return lines to prefetch (maybe empty)."""
        by_line = self._by_line
        found = None
        for candidate in range(line - self.window, line + self.window + 1):
            streams = by_line.get(candidate)
            if streams is not None:
                for stream in streams:
                    if found is None or stream.slot < found.slot:
                        found = stream
        if found is None:
            self._allocate(line)
            return []
        lru = self._lru
        del lru[found]
        lru[found] = None
        delta = line - found.last_line
        if delta == 0:
            return []
        direction = 1 if delta > 0 else -1
        if direction == found.direction:
            if found.confidence < 7:
                found.confidence += 1
        else:
            found.direction = direction
            found.confidence = 1
        self._move(found, line)
        if found.confidence >= self.TRAIN_THRESHOLD:
            prefetches = [line + direction * (self.distance + i)
                          for i in range(self.degree)]
            self.issued += len(prefetches)
            return prefetches
        return []

    def _move(self, stream: _Stream, line: int) -> None:
        """Re-key ``stream`` from its last line to ``line``."""
        by_line = self._by_line
        streams = by_line[stream.last_line]
        if len(streams) == 1:
            del by_line[stream.last_line]
        else:
            streams.remove(stream)
        stream.last_line = line
        streams = by_line.get(line)
        if streams is None:
            by_line[line] = [stream]
        else:
            streams.append(stream)

    def _allocate(self, line: int) -> None:
        lru = self._lru
        if len(self._streams) < self.num_streams:
            stream = _Stream(line, len(self._streams))
            self._streams.append(stream)
            self._by_line.setdefault(line, []).append(stream)
        else:
            stream = next(iter(lru))
            del lru[stream]
            self._move(stream, line)
            stream.direction = 0
            stream.confidence = 0
        lru[stream] = None
