"""GShare predictor: global-history XOR PC indexed 2-bit counters.

The counter table is a packed :class:`bytearray` store with precomputed
saturating clamp tables (see :mod:`repro.predictors.storage`); the original
list-of-ints spelling lives on as
``ReferenceGSharePredictor`` (``tests/reference_predictors.py``).
"""

from __future__ import annotations

from repro.predictors.base import BranchPredictor
from repro.predictors.storage import clamp_tables, unsigned_store


class GSharePredictor(BranchPredictor):
    """Classic gshare with a ``history_bits``-deep global history register."""

    name = "gshare"

    def __init__(self, size_log2: int = 14, history_bits: int = 12):
        self.size_log2 = size_log2
        self.history_bits = history_bits
        self._index_mask = (1 << size_log2) - 1
        self._history_mask = (1 << history_bits) - 1
        self.table = unsigned_store(1 << size_log2, 1)  # weakly not-taken
        self.history = 0
        self._inc, self._dec = clamp_tables(0, 3)

    def _index(self, pc: int) -> int:
        return (pc ^ self.history) & self._index_mask

    def predict(self, pc: int) -> bool:
        return self.table[(pc ^ self.history) & self._index_mask] >= 2

    def update(self, pc: int, taken: bool) -> None:
        table = self.table
        index = (pc ^ self.history) & self._index_mask
        if taken:
            table[index] = self._inc[table[index]]
            self.history = ((self.history << 1) | 1) & self._history_mask
        else:
            table[index] = self._dec[table[index]]
            self.history = (self.history << 1) & self._history_mask

    def storage_bits(self) -> int:
        return len(self.table) * 2 + self.history_bits
