"""Reference predictor implementations (pre-packed-storage).

These are the original per-entry list/object implementations of every
predictor family, preserved verbatim when the production classes moved to
flat packed-array storage (:mod:`repro.predictors.storage`).  They define
the behavioral contract: ``tests/test_predictor_packed_differential.py``
drives each packed predictor and its ``Reference*`` twin in lockstep over
randomized branch streams and requires bit-identical predictions *and*
bit-identical observable state, and ``tests/test_tage_batch_differential.py``
pins the packed-lane TAGE kernel against them.  Only the tests import them,
so they live here rather than in the package.

Do not optimize this module — its value is being the slow, obviously
correct spelling of the update rules.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.predictors.base import BranchPredictor
from repro.predictors.counters import FoldedHistory, HistoryBuffer, Lfsr
from repro.predictors.tage import TageConfig


class ReferenceBimodalPredictor(BranchPredictor):
    """PC-indexed table of 2-bit saturating counters."""

    name = "bimodal"

    def __init__(self, size_log2: int = 14, counter_bits: int = 2):
        self.size_log2 = size_log2
        self.counter_bits = counter_bits
        self._mask = (1 << size_log2) - 1
        self._max = (1 << counter_bits) - 1
        self._threshold = 1 << (counter_bits - 1)
        # weakly not-taken initial state
        self.table = [self._threshold - 1] * (1 << size_log2)

    def _index(self, pc: int) -> int:
        return pc & self._mask

    def predict(self, pc: int) -> bool:
        return self.table[self._index(pc)] >= self._threshold

    def update(self, pc: int, taken: bool) -> None:
        index = self._index(pc)
        value = self.table[index]
        if taken:
            if value < self._max:
                self.table[index] = value + 1
        elif value > 0:
            self.table[index] = value - 1

    def storage_bits(self) -> int:
        return len(self.table) * self.counter_bits


class ReferenceGSharePredictor(BranchPredictor):
    """Classic gshare with a ``history_bits``-deep global history register."""

    name = "gshare"

    def __init__(self, size_log2: int = 14, history_bits: int = 12):
        self.size_log2 = size_log2
        self.history_bits = history_bits
        self._index_mask = (1 << size_log2) - 1
        self._history_mask = (1 << history_bits) - 1
        self.table = [1] * (1 << size_log2)  # weakly not-taken
        self.history = 0

    def _index(self, pc: int) -> int:
        return (pc ^ self.history) & self._index_mask

    def predict(self, pc: int) -> bool:
        return self.table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        index = self._index(pc)
        value = self.table[index]
        if taken and value < 3:
            self.table[index] = value + 1
        elif not taken and value > 0:
            self.table[index] = value - 1
        self.history = ((self.history << 1) | (1 if taken else 0)) \
            & self._history_mask

    def storage_bits(self) -> int:
        return len(self.table) * 2 + self.history_bits


class ReferencePerceptronPredictor(BranchPredictor):
    """Global-history perceptron with the standard threshold training."""

    name = "perceptron"

    def __init__(self, num_perceptrons: int = 512, history_bits: int = 24,
                 weight_bits: int = 8):
        self.num_perceptrons = num_perceptrons
        self.history_bits = history_bits
        self._weight_max = (1 << (weight_bits - 1)) - 1
        self._weight_min = -(1 << (weight_bits - 1))
        self.threshold = int(1.93 * history_bits + 14)
        # weights[i][0] is the bias weight; [1..h] pair with history bits
        self.weights: List[List[int]] = [
            [0] * (history_bits + 1) for _ in range(num_perceptrons)
        ]
        self._history: List[int] = [1] * history_bits  # +1/-1 encoding
        self._last_output = 0
        self._last_index = 0

    def _index(self, pc: int) -> int:
        return pc % self.num_perceptrons

    def predict(self, pc: int) -> bool:
        index = self._index(pc)
        weights = self.weights[index]
        output = weights[0]
        history = self._history
        for position in range(self.history_bits):
            output += weights[position + 1] * history[position]
        self._last_output = output
        self._last_index = index
        return output >= 0

    def update(self, pc: int, taken: bool) -> None:
        index = self._index(pc)
        if index != self._last_index:
            self.predict(pc)
        output = self._last_output
        predicted = output >= 0
        target = 1 if taken else -1
        if predicted != taken or abs(output) <= self.threshold:
            weights = self.weights[index]
            weights[0] = self._clip(weights[0] + target)
            history = self._history
            for position in range(self.history_bits):
                delta = target * history[position]
                weights[position + 1] = self._clip(
                    weights[position + 1] + delta)
        self._history.insert(0, target)
        self._history.pop()

    def _clip(self, value: int) -> int:
        return max(self._weight_min, min(self._weight_max, value))

    def storage_bits(self) -> int:
        return self.num_perceptrons * (self.history_bits + 1) * 8


class _ReferenceLoopEntry:
    __slots__ = ("tag", "past_iter", "current_iter", "confidence", "direction",
                 "age")

    def __init__(self):
        self.tag = -1
        self.past_iter = 0
        self.current_iter = 0
        self.confidence = 0
        self.direction = True  # direction taken while iterating
        self.age = 0


class ReferenceLoopPredictor:
    """Set of loop entries indexed by PC (per-entry object spelling)."""

    CONFIDENCE_MAX = 3
    AGE_MAX = 7

    def __init__(self, size_log2: int = 6, tag_bits: int = 14):
        self._mask = (1 << size_log2) - 1
        self._tag_mask = (1 << tag_bits) - 1
        self.entries = [_ReferenceLoopEntry() for _ in range(1 << size_log2)]
        self.size_log2 = size_log2
        self.tag_bits = tag_bits

    def _lookup(self, pc: int):
        entry = self.entries[pc & self._mask]
        tag = (pc >> self.size_log2) & self._tag_mask
        return entry, tag

    def predict(self, pc: int):
        """Return ``(valid, direction)`` for the branch at ``pc``."""
        entry, tag = self._lookup(pc)
        if entry.tag != tag or entry.confidence < self.CONFIDENCE_MAX:
            return False, False
        if entry.current_iter == entry.past_iter:
            return True, not entry.direction  # predict the exit
        return True, entry.direction

    def update(self, pc: int, taken: bool) -> None:
        entry, tag = self._lookup(pc)
        if entry.tag != tag:
            # allocate if the current occupant has aged out
            if entry.age == 0:
                entry.tag = tag
                entry.past_iter = 0
                entry.current_iter = 0
                entry.confidence = 0
                entry.direction = taken
                entry.age = self.AGE_MAX
            else:
                entry.age -= 1
            return

        if taken == entry.direction:
            entry.current_iter += 1
            if entry.past_iter and entry.current_iter > entry.past_iter:
                # ran past the learned trip count: not a fixed-trip loop
                entry.confidence = 0
                entry.past_iter = 0
                entry.current_iter = 0
        else:
            # loop exit observed
            if entry.current_iter == entry.past_iter and entry.past_iter > 0:
                if entry.confidence < self.CONFIDENCE_MAX:
                    entry.confidence += 1
                if entry.age < self.AGE_MAX:
                    entry.age += 1
            else:
                entry.past_iter = entry.current_iter
                entry.confidence = 0
            entry.current_iter = 0

    def storage_bits(self) -> int:
        per_entry = self.tag_bits + 14 + 14 + 2 + 1 + 3
        return len(self.entries) * per_entry


class ReferenceStatisticalCorrector:
    """O-GEHL-like corrector with an adaptive use threshold."""

    COUNTER_MAX = 31
    COUNTER_MIN = -32

    def __init__(self, history_lengths: Sequence[int] = (2, 4, 8, 16, 27),
                 table_size_log2: int = 10):
        self.history_lengths = list(history_lengths)
        self.table_size_log2 = table_size_log2
        self._mask = (1 << table_size_log2) - 1
        size = 1 << table_size_log2
        self.tables: List[List[int]] = [
            [0] * size for _ in self.history_lengths
        ]
        self.bias = [0] * (2 << table_size_log2)  # indexed by (pc, tage_pred)
        max_history = max(self.history_lengths)
        self._history = HistoryBuffer(max_history + 2)
        self._folds = [FoldedHistory(length, table_size_log2)
                       for length in self.history_lengths]
        self.threshold = 6
        self._threshold_counter = 0

    def _indices(self, pc: int) -> List[int]:
        return [(pc ^ fold.comp ^ (pc >> 3)) & self._mask
                for fold in self._folds]

    def _bias_index(self, pc: int, tage_pred: bool) -> int:
        return ((pc << 1) | (1 if tage_pred else 0)) & (len(self.bias) - 1)

    def compute_sum(self, pc: int, tage_pred: bool) -> int:
        """Centered sum of all corrector counters (positive = taken)."""
        total = 2 * self.bias[self._bias_index(pc, tage_pred)] + 1
        for table, index in zip(self.tables, self._indices(pc)):
            total += 2 * table[index] + 1
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
            direction = 1 if taken else -1
            bias_index = self._bias_index(pc, tage_pred)
            value = self.bias[bias_index] + direction
            self.bias[bias_index] = max(self.COUNTER_MIN,
                                        min(self.COUNTER_MAX, value))
            for table, index in zip(self.tables, self._indices(pc)):
                value = table[index] + direction
                table[index] = max(self.COUNTER_MIN,
                                   min(self.COUNTER_MAX, value))
        self._push_history(taken)

    def _push_history(self, taken: bool) -> None:
        new_bit = 1 if taken else 0
        history = self._history
        buffer = history._buffer
        size = history._size
        head = history._head + 1
        if head == size:
            head = 0
        history._head = head
        buffer[head] = new_bit
        for length, fold in zip(self.history_lengths, self._folds):
            old_bit = buffer[(head - length) % size]
            comp = ((fold.comp << 1) | new_bit) ^ (old_bit << fold._out_shift)
            comp ^= comp >> fold.compressed_length
            fold.comp = comp & fold._mask

    def storage_bits(self) -> int:
        counters = sum(len(table) for table in self.tables) + len(self.bias)
        return counters * 6


class _ReferenceTaggedTable:
    """One tagged component table with its folded-history registers."""

    __slots__ = ("size_log2", "mask", "tag_mask", "history_length",
                 "pc_shift",
                 "ctr", "tag", "useful", "f_index", "f_tag0", "f_tag1")

    def __init__(self, size_log2: int, tag_bits: int, history_length: int):
        size = 1 << size_log2
        self.size_log2 = size_log2
        self.mask = size - 1
        self.tag_mask = (1 << tag_bits) - 1
        self.history_length = history_length
        self.pc_shift = size_log2 // 2 + 1  # precomputed for index()
        self.ctr = [0] * size       # signed, counter_bits wide
        self.tag = [0] * size
        self.useful = [0] * size
        self.f_index = FoldedHistory(history_length, size_log2)
        self.f_tag0 = FoldedHistory(history_length, tag_bits)
        self.f_tag1 = FoldedHistory(history_length, max(tag_bits - 1, 1))

    def index(self, pc: int) -> int:
        return (pc ^ (pc >> self.pc_shift) ^ self.f_index.comp) & self.mask

    def compute_tag(self, pc: int) -> int:
        return (pc ^ self.f_tag0.comp ^ (self.f_tag1.comp << 1)) \
            & self.tag_mask


class ReferenceTagePredictor(BranchPredictor):
    """The TAGE predictor proper (no SC, no loop component)."""

    name = "tage"

    def __init__(self, config: Optional[TageConfig] = None):
        self.config = config or TageConfig()
        cfg = self.config
        self._ctr_max = (1 << (cfg.counter_bits - 1)) - 1
        self._ctr_min = -(1 << (cfg.counter_bits - 1))
        self._useful_max = (1 << cfg.useful_bits) - 1
        self.tables = [
            _ReferenceTaggedTable(cfg.table_size_log2, cfg.tag_bits, length)
            for length in cfg.history_lengths
        ]
        base_size = 1 << cfg.base_size_log2
        self._base = [1] * base_size  # 2-bit, weakly not-taken
        self._base_mask = base_size - 1
        self._history = HistoryBuffer(cfg.max_history + 2)
        self._lfsr = Lfsr()
        self._use_alt_on_na = 0  # 4-bit signed
        self._tick = 0
        # per-prediction context (filled by predict, consumed by update)
        self._ctx_pc = -1
        self._provider = -1
        self._provider_index = -1
        self._alt_provider = -1
        self._alt_index = -1
        self._provider_pred = False
        self._alt_pred = False
        self._final_pred = False
        self._indices: List[int] = [0] * cfg.num_tables
        self._tags: List[int] = [0] * cfg.num_tables

    # -- prediction ---------------------------------------------------------

    def base_predict(self, pc: int) -> bool:
        return self._base[pc & self._base_mask] >= 2

    def predict(self, pc: int) -> bool:
        provider = -1
        alt = -1
        indices = self._indices
        tags = self._tags
        tables = self.tables
        for i in range(len(tables) - 1, -1, -1):
            table = tables[i]
            index = (pc ^ (pc >> table.pc_shift)
                     ^ table.f_index.comp) & table.mask
            tag = (pc ^ table.f_tag0.comp
                   ^ (table.f_tag1.comp << 1)) & table.tag_mask
            indices[i] = index
            tags[i] = tag
            if table.tag[index] == tag:
                if provider < 0:
                    provider = i
                elif alt < 0:
                    alt = i
                    break
        self._ctx_pc = pc
        self._provider = provider
        self._alt_provider = alt

        if alt >= 0:
            alt_table = self.tables[alt]
            self._alt_index = self._indices[alt]
            self._alt_pred = alt_table.ctr[self._alt_index] >= 0
        else:
            self._alt_index = -1
            self._alt_pred = self.base_predict(pc)

        if provider >= 0:
            table = self.tables[provider]
            index = self._indices[provider]
            self._provider_index = index
            ctr = table.ctr[index]
            self._provider_pred = ctr >= 0
            weak = ctr in (-1, 0)
            if weak and self._use_alt_on_na >= 0:
                self._final_pred = self._alt_pred
            else:
                self._final_pred = self._provider_pred
        else:
            self._provider_index = -1
            self._provider_pred = self._alt_pred
            self._final_pred = self._alt_pred
        return self._final_pred

    def last_confidence_high(self) -> bool:
        if self._provider < 0:
            return False
        ctr = self.tables[self._provider].ctr[self._provider_index]
        return ctr <= self._ctr_min + 1 or ctr >= self._ctr_max - 1

    # -- update ---------------------------------------------------------------

    def update(self, pc: int, taken: bool) -> None:
        if pc != self._ctx_pc:
            self.predict(pc)
        mispredicted = self._final_pred != taken

        provider = self._provider
        if provider >= 0:
            table = self.tables[provider]
            index = self._provider_index
            # use_alt_on_na training: only when the provider entry was weak
            ctr = table.ctr[index]
            if ctr in (-1, 0) and self._provider_pred != self._alt_pred:
                if self._alt_pred == taken:
                    if self._use_alt_on_na < 7:
                        self._use_alt_on_na += 1
                elif self._use_alt_on_na > -8:
                    self._use_alt_on_na -= 1
            # useful bit: provider differed from alt and was right/wrong
            if self._provider_pred != self._alt_pred:
                if self._provider_pred == taken:
                    if table.useful[index] < self._useful_max:
                        table.useful[index] += 1
                elif table.useful[index] > 0:
                    table.useful[index] -= 1
            # provider counter
            if taken:
                if ctr < self._ctr_max:
                    table.ctr[index] = ctr + 1
            elif ctr > self._ctr_min:
                table.ctr[index] = ctr - 1
            # train alt/base when provider entry is unreliable
            if table.useful[index] == 0:
                self._update_alt(pc, taken)
        else:
            self._update_base(pc, taken)

        if mispredicted and provider < len(self.tables) - 1:
            self._allocate(pc, taken, provider)

        self._tick += 1
        if self._tick % self.config.useful_reset_period == 0:
            self._graceful_useful_reset()

        self._push_history(taken)
        self._ctx_pc = -1

    def _update_alt(self, pc: int, taken: bool) -> None:
        if self._alt_provider >= 0:
            table = self.tables[self._alt_provider]
            index = self._alt_index
            ctr = table.ctr[index]
            if taken:
                if ctr < self._ctr_max:
                    table.ctr[index] = ctr + 1
            elif ctr > self._ctr_min:
                table.ctr[index] = ctr - 1
        else:
            self._update_base(pc, taken)

    def _update_base(self, pc: int, taken: bool) -> None:
        index = pc & self._base_mask
        value = self._base[index]
        if taken:
            if value < 3:
                self._base[index] = value + 1
        elif value > 0:
            self._base[index] = value - 1

    def _allocate(self, pc: int, taken: bool, provider: int) -> None:
        """Allocate a new entry in a longer-history table on a mispredict."""
        start = provider + 1
        candidates = [i for i in range(start, len(self.tables))
                      if self.tables[i].useful[self._indices[i]] == 0]
        if not candidates:
            # nothing free: age the useful bits of all longer tables
            for i in range(start, len(self.tables)):
                index = self._indices[i]
                if self.tables[i].useful[index] > 0:
                    self.tables[i].useful[index] -= 1
            return
        # prefer shorter histories, skipping each with probability 1/2
        # (LFSR-driven), as in the reference TAGE implementation
        chosen = candidates[0]
        for i in candidates:
            if self._lfsr.bits(1) == 0:
                chosen = i
                break
        table = self.tables[chosen]
        index = self._indices[chosen]
        table.tag[index] = self._tags[chosen]
        table.ctr[index] = 0 if taken else -1
        table.useful[index] = 0

    def _graceful_useful_reset(self) -> None:
        """Alternately clear the high/low useful bit of every entry."""
        phase = (self._tick // self.config.useful_reset_period) & 1
        clear_mask = 1 if phase else ~1
        for table in self.tables:
            useful = table.useful
            if phase:
                for i, value in enumerate(useful):
                    useful[i] = value & 1
            else:
                for i, value in enumerate(useful):
                    useful[i] = value & clear_mask

    def _push_history(self, taken: bool) -> None:
        new_bit = 1 if taken else 0
        history = self._history
        buffer = history._buffer
        size = history._size
        head = history._head + 1
        if head == size:
            head = 0
        history._head = head
        buffer[head] = new_bit
        for table in self.tables:
            old_bit = buffer[(head - table.history_length) % size]
            fold = table.f_index
            comp = ((fold.comp << 1) | new_bit) ^ (old_bit << fold._out_shift)
            comp ^= comp >> fold.compressed_length
            fold.comp = comp & fold._mask
            fold = table.f_tag0
            comp = ((fold.comp << 1) | new_bit) ^ (old_bit << fold._out_shift)
            comp ^= comp >> fold.compressed_length
            fold.comp = comp & fold._mask
            fold = table.f_tag1
            comp = ((fold.comp << 1) | new_bit) ^ (old_bit << fold._out_shift)
            comp ^= comp >> fold.compressed_length
            fold.comp = comp & fold._mask

    def storage_bits(self) -> int:
        return self.config.storage_bits()


class ReferenceTageSCL(BranchPredictor):
    """TAGE + Statistical Corrector + Loop predictor (reference spelling)."""

    name = "tage-sc-l"

    def __init__(self,
                 tage_config: Optional[TageConfig] = None,
                 loop: Optional[ReferenceLoopPredictor] = None,
                 corrector: Optional[ReferenceStatisticalCorrector] = None,
                 name: Optional[str] = None):
        self.tage = ReferenceTagePredictor(tage_config)
        self.loop = loop or ReferenceLoopPredictor()
        self.corrector = corrector or ReferenceStatisticalCorrector()
        if name:
            self.name = name
        self._ctx_pc = -1
        self._tage_pred = False
        self._loop_valid = False
        self._loop_pred = False
        self._sc_total = 0
        self._final = False

    def predict(self, pc: int) -> bool:
        tage_pred = self.tage.predict(pc)
        loop_valid, loop_pred = self.loop.predict(pc)
        pred = loop_pred if loop_valid else tage_pred
        total = self.corrector.compute_sum(pc, pred)
        if self.corrector.should_override(total, pred):
            pred = total >= 0
        self._ctx_pc = pc
        self._tage_pred = tage_pred
        self._loop_valid = loop_valid
        self._loop_pred = loop_pred
        self._sc_total = total
        self._final = pred
        return pred

    def update(self, pc: int, taken: bool) -> None:
        if pc != self._ctx_pc:
            self.predict(pc)
        base_pred = self._loop_pred if self._loop_valid else self._tage_pred
        self.corrector.update(pc, taken, base_pred, self._sc_total)
        self.loop.update(pc, taken)
        self.tage.update(pc, taken)
        self._ctx_pc = -1

    def storage_bits(self) -> int:
        return (self.tage.storage_bits() + self.loop.storage_bits()
                + self.corrector.storage_bits())
