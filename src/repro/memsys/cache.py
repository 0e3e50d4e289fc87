"""Set-associative cache timing model.

Tracks tags only (data values live in the functional
:class:`~repro.emulator.memory.Memory`); the timing model asks "would this
access hit, and what state does it change?".  Write-back, write-allocate,
true-LRU replacement.  Addresses are word addresses (8-byte words); a line
holds ``line_words`` words.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class CacheStats:
    """Hit/miss/writeback counters for one cache."""

    __slots__ = ("hits", "misses", "writebacks", "prefetch_fills",
                 "prefetch_hits")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self.prefetch_fills = 0
        self.prefetch_hits = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0


class Cache:
    """One level of cache: tag array + LRU + dirty bits."""

    def __init__(self, name: str, size_bytes: int, ways: int,
                 line_bytes: int = 64, hit_latency: int = 1):
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.hit_latency = hit_latency
        self.num_sets = size_bytes // (line_bytes * ways)
        if self.num_sets < 1 or self.num_sets & (self.num_sets - 1):
            raise ValueError(
                f"{name}: set count {self.num_sets} must be a power of two")
        self._set_mask = self.num_sets - 1
        # per-set: list of (line_tag) in LRU order (front = MRU)
        self._sets: List[List[int]] = [[] for _ in range(self.num_sets)]
        self._dirty: Dict[int, bool] = {}
        self._prefetched: Dict[int, bool] = {}
        self.stats = CacheStats()

    def _set_index(self, line: int) -> int:
        return line & self._set_mask

    def lookup(self, line: int) -> bool:
        """Non-modifying presence check (used by prefetcher filters)."""
        return line in self._sets[self._set_index(line)]

    def access(self, line: int, is_write: bool) -> bool:
        """Access a line; returns True on hit.  Updates LRU/dirty state."""
        entry_list = self._sets[line & self._set_mask]
        # MRU fast path: the LRU order is already correct, skip the
        # remove/insert churn the common repeated-line access would pay
        if entry_list and entry_list[0] == line:
            self.stats.hits += 1
            if is_write:
                self._dirty[line] = True
            if self._prefetched and self._prefetched.pop(line, False):
                self.stats.prefetch_hits += 1
            return True
        if line in entry_list:
            self.stats.hits += 1
            entry_list.remove(line)
            entry_list.insert(0, line)
            if is_write:
                self._dirty[line] = True
            if self._prefetched and self._prefetched.pop(line, False):
                self.stats.prefetch_hits += 1
            return True
        self.stats.misses += 1
        return False

    def fill(self, line: int, is_write: bool = False,
             from_prefetch: bool = False) -> Optional[int]:
        """Install a line; returns the victim line if a dirty eviction occurs."""
        entry_list = self._sets[self._set_index(line)]
        if line in entry_list:  # already filled (merged miss)
            return None
        victim = None
        if len(entry_list) >= self.ways:
            evicted = entry_list.pop()
            if self._dirty.pop(evicted, False):
                self.stats.writebacks += 1
                victim = evicted
            self._prefetched.pop(evicted, None)
        entry_list.insert(0, line)
        if is_write:
            self._dirty[line] = True
        if from_prefetch:
            self._prefetched[line] = True
            self.stats.prefetch_fills += 1
        return victim


def word_to_line(word_address: int, line_bytes: int = 64,
                 word_bytes: int = 8) -> Tuple[int, int]:
    """Map a word address to (line number, word offset within line)."""
    words_per_line = line_bytes // word_bytes
    return word_address // words_per_line, word_address % words_per_line
