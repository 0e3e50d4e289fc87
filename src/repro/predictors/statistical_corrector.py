"""Statistical corrector (the "SC" of TAGE-SC-L).

A GEHL-style adder tree: several tables of signed counters indexed by PC
hashed with global histories of different (short) lengths, plus a bias table
conditioned on the TAGE prediction.  When the weighted sum disagrees with
TAGE confidently enough (adaptive threshold), the SC flips the prediction.
This catches statistically biased branches that TAGE's tagged matching
handles poorly.

Counter tables are packed signed-``array('b')`` stores (the counters are
6-bit, [-32, 31]) trained through precomputed clamp tables; folded-history
state is kept in flat parallel lists so the per-branch hash loop runs on
local list indexing.  ``compute_sum`` caches its table indices for the
immediately following ``update`` of the same branch — the fold registers
only advance at the end of ``update``, so the cached indices are exactly
what the reference implementation recomputes.  The original list-of-ints
spelling lives on as
``ReferenceStatisticalCorrector`` (``tests/reference_predictors.py``).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.predictors.counters import HistoryBuffer
from repro.predictors.storage import clamp_tables, signed_store


class StatisticalCorrector:
    """O-GEHL-like corrector with an adaptive use threshold."""

    COUNTER_MAX = 31
    COUNTER_MIN = -32

    def __init__(self, history_lengths: Sequence[int] = (2, 4, 8, 16, 27),
                 table_size_log2: int = 10):
        self.history_lengths = list(history_lengths)
        self.table_size_log2 = table_size_log2
        self._mask = (1 << table_size_log2) - 1
        size = 1 << table_size_log2
        self.tables = [signed_store(size, 6) for _ in self.history_lengths]
        self.bias = signed_store(2 << table_size_log2, 6)
        self._bias_mask = (2 << table_size_log2) - 1
        max_history = max(self.history_lengths)
        self._history = HistoryBuffer(max_history + 2)
        # folded-history registers, flat: comp value and out-shift per table
        # (the compressed length is table_size_log2 for every fold)
        self._fold_comps = [0] * len(self.history_lengths)
        self._fold_shifts = [length % table_size_log2
                             for length in self.history_lengths]
        self._inc, self._dec = clamp_tables(self.COUNTER_MIN,
                                            self.COUNTER_MAX)
        self.threshold = 6
        self._threshold_counter = 0
        # indices cached by compute_sum for the paired update
        self._ctx_pc = -1
        self._ctx_indices = [0] * len(self.history_lengths)

    def _indices(self, pc: int) -> List[int]:
        pcx = pc ^ (pc >> 3)
        mask = self._mask
        return [(pcx ^ comp) & mask for comp in self._fold_comps]

    def _bias_index(self, pc: int, tage_pred: bool) -> int:
        return ((pc << 1) | (1 if tage_pred else 0)) & self._bias_mask

    def compute_sum(self, pc: int, tage_pred: bool) -> int:
        """Centered sum of all corrector counters (positive = taken)."""
        bias_index = ((pc << 1) | (1 if tage_pred else 0)) & self._bias_mask
        total = 2 * self.bias[bias_index] + 1
        pcx = pc ^ (pc >> 3)
        mask = self._mask
        indices = self._ctx_indices
        comps = self._fold_comps
        tables = self.tables
        for position in range(len(tables)):
            index = (pcx ^ comps[position]) & mask
            indices[position] = index
            total += 2 * tables[position][index] + 1
        self._ctx_pc = pc
        # fold the TAGE direction in, as the reference SC does
        total += 8 if tage_pred else -8
        return total

    def should_override(self, total: int, tage_pred: bool) -> bool:
        """Whether the SC sum is confident enough to override TAGE."""
        sc_pred = total >= 0
        return sc_pred != tage_pred and abs(total) >= self.threshold

    def update(self, pc: int, taken: bool, tage_pred: bool,
               total: int) -> None:
        sc_pred = total >= 0
        used = self.should_override(total, tage_pred)
        # adaptive threshold (O-GEHL style): adjust when SC is near-threshold
        if sc_pred != tage_pred and abs(total) < 2 * self.threshold:
            if sc_pred == taken:
                self._threshold_counter -= 1
                if self._threshold_counter <= -4:
                    self._threshold_counter = 0
                    if self.threshold > 4:
                        self.threshold -= 1
            else:
                self._threshold_counter += 1
                if self._threshold_counter >= 4:
                    self._threshold_counter = 0
                    if self.threshold < 31:
                        self.threshold += 1
        # train counters when the sum is weak or the final answer was wrong
        final_pred = sc_pred if used else tage_pred
        if final_pred != taken or abs(total) < 4 * self.threshold:
            if pc == self._ctx_pc:
                indices = self._ctx_indices
            else:
                indices = self._indices(pc)
            step = self._inc if taken else self._dec
            low = self.COUNTER_MIN
            bias = self.bias
            bias_index = ((pc << 1) | (1 if tage_pred else 0)) \
                & self._bias_mask
            bias[bias_index] = step[bias[bias_index] - low]
            tables = self.tables
            for position in range(len(tables)):
                table = tables[position]
                index = indices[position]
                table[index] = step[table[index] - low]
        self._push_history(taken)
        self._ctx_pc = -1

    def _push_history(self, taken: bool) -> None:
        # HistoryBuffer maintenance inlined; the fold registers live in
        # flat parallel lists so this is pure local-list indexing
        new_bit = 1 if taken else 0
        history = self._history
        buffer = history._buffer
        size = history._size
        head = history._head + 1
        if head == size:
            head = 0
        history._head = head
        buffer[head] = new_bit
        comps = self._fold_comps
        shifts = self._fold_shifts
        comp_len = self.table_size_log2
        comp_mask = self._mask
        lengths = self.history_lengths
        for position in range(len(comps)):
            old_bit = buffer[(head - lengths[position]) % size]
            comp = ((comps[position] << 1) | new_bit) \
                ^ (old_bit << shifts[position])
            comp ^= comp >> comp_len
            comps[position] = comp & comp_mask

    def hash_block(self, pcs, takens):
        """Materialize every event's table-index row, advancing the folds.

        The corrector twin of :meth:`TagePredictor.hash_block`: indices
        depend on the PC and outcome stream only, so one fresh instance
        serves as the shared fold engine for all same-geometry lanes of a
        batched group.
        """
        mask = self._mask
        comps = self._fold_comps
        push = self._push_history
        rows = []
        append = rows.append
        for pc, taken in zip(pcs, takens):
            pcx = pc ^ (pc >> 3)
            append([(pcx ^ comp) & mask for comp in comps])
            push(taken)
        return rows

    def export_state(self) -> dict:
        """Mutable corrector state, for lane packing / pristine checks."""
        return {
            "tables": self.tables,
            "bias": self.bias,
            "threshold": self.threshold,
            "threshold_counter": self._threshold_counter,
            "fold_comps": list(self._fold_comps),
            "history": (bytes(self._history._buffer), self._history._head),
        }

    def storage_bits(self) -> int:
        counters = sum(len(table) for table in self.tables) + len(self.bias)
        return counters * 6
