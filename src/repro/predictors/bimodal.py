"""Bimodal (per-PC 2-bit counter) predictor.

Serves both as a standalone baseline and as the base prediction of TAGE.
The counter table is a packed :class:`bytearray` store with precomputed
saturating clamp tables (see :mod:`repro.predictors.storage`); the original
list-of-ints spelling lives on as
``ReferenceBimodalPredictor`` (``tests/reference_predictors.py``).
"""

from __future__ import annotations

from array import array

from repro.predictors.base import BranchPredictor
from repro.predictors.storage import clamp_tables, unsigned_store


class BimodalPredictor(BranchPredictor):
    """PC-indexed packed table of 2-bit saturating counters."""

    name = "bimodal"

    def __init__(self, size_log2: int = 14, counter_bits: int = 2):
        self.size_log2 = size_log2
        self.counter_bits = counter_bits
        self._mask = (1 << size_log2) - 1
        self._max = (1 << counter_bits) - 1
        self._threshold = 1 << (counter_bits - 1)
        # weakly not-taken initial state
        fill = self._threshold - 1
        size = 1 << size_log2
        if counter_bits <= 8:
            self.table = unsigned_store(size, fill)
        else:
            self.table = array("l", [fill]) * size
        self._inc, self._dec = clamp_tables(0, self._max)

    def _index(self, pc: int) -> int:
        return pc & self._mask

    def predict(self, pc: int) -> bool:
        return self.table[pc & self._mask] >= self._threshold

    def update(self, pc: int, taken: bool) -> None:
        table = self.table
        index = pc & self._mask
        if taken:
            table[index] = self._inc[table[index]]
        else:
            table[index] = self._dec[table[index]]

    def storage_bits(self) -> int:
        return len(self.table) * self.counter_bits
