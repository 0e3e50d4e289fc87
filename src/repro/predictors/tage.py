"""TAGE: TAgged GEometric history length predictor (Seznec).

A faithful-in-structure implementation of the TAGE component used by
TAGE-SC-L (CBP-2016 winner): a bimodal base predictor plus ``N`` tagged
tables indexed with geometrically increasing global-history lengths, with
useful-bit managed allocation, alt-prediction on newly allocated entries,
and incrementally folded histories for O(1) per-branch hashing.

Storage is parameterized so the 64KB, 80KB, and "unlimited" MTAGE
configurations of the paper are all instances of this class (see
:mod:`repro.predictors.tage_scl` and :mod:`repro.predictors.mtage`).

Table state is packed (see :mod:`repro.predictors.storage`): per-table
counter/tag/useful stores are flat typed arrays, and the three folded-
history families (index, tag, tag<<1) are SWAR-packed — every table's fold
register occupies one fixed-width lane of a single big int, so a whole-
predictor history advance is a handful of big-int operations and predict()
materializes all table indices (and tags) with one ``struct.unpack`` each.
Every table shares ``table_size_log2``, which makes the index mask, tag
mask, and PC pre-hash shift constants of the predict loop.  Saturating
counter steps go through precomputed clamp tables and the graceful
useful-bit reset is a C-level ``bytes.translate`` over each packed useful
store.  The original per-object spelling is preserved in
``ReferenceTagePredictor`` (``tests/reference_predictors.py``) and
bit-identity between the two is pinned by
``tests/test_predictor_packed_differential.py``.
"""

from __future__ import annotations

from struct import unpack
from typing import List, Optional

from repro.predictors.base import BranchPredictor
from repro.predictors.counters import HistoryBuffer, Lfsr
from repro.predictors.storage import (
    clamp_tables,
    mask_translation,
    signed_clamp_tables,
    signed_store,
    tag_store,
    unsigned_store,
)


def geometric_history_lengths(count: int, minimum: int, maximum: int) -> List[int]:
    """The classic TAGE geometric series of history lengths."""
    if count == 1:
        return [minimum]
    ratio = (maximum / minimum) ** (1.0 / (count - 1))
    lengths = []
    for i in range(count):
        length = int(round(minimum * ratio ** i))
        if lengths and length <= lengths[-1]:
            length = lengths[-1] + 1
        lengths.append(length)
    return lengths


class TageConfig:
    """Sizing knobs for a TAGE instance."""

    def __init__(self,
                 num_tables: int = 12,
                 table_size_log2: int = 11,
                 tag_bits: int = 11,
                 counter_bits: int = 3,
                 useful_bits: int = 2,
                 min_history: int = 4,
                 max_history: int = 640,
                 base_size_log2: int = 15,
                 useful_reset_period: int = 1 << 16):
        self.num_tables = num_tables
        self.table_size_log2 = table_size_log2
        self.tag_bits = tag_bits
        self.counter_bits = counter_bits
        self.useful_bits = useful_bits
        self.min_history = min_history
        self.max_history = max_history
        self.base_size_log2 = base_size_log2
        self.useful_reset_period = useful_reset_period
        self.history_lengths = geometric_history_lengths(
            num_tables, min_history, max_history)

    def storage_bits(self) -> int:
        entry_bits = self.counter_bits + self.tag_bits + self.useful_bits
        tagged = self.num_tables * (1 << self.table_size_log2) * entry_bits
        base = (1 << self.base_size_log2) * 2
        return tagged + base


class TagePredictor(BranchPredictor):
    """The TAGE predictor proper (no SC, no loop component)."""

    name = "tage"

    def __init__(self, config: Optional[TageConfig] = None):
        self.config = config or TageConfig()
        cfg = self.config
        num_tables = cfg.num_tables
        self._num_tables = num_tables
        self._ctr_max = (1 << (cfg.counter_bits - 1)) - 1
        self._ctr_min = -(1 << (cfg.counter_bits - 1))
        self._useful_max = (1 << cfg.useful_bits) - 1
        size_log2 = cfg.table_size_log2
        size = 1 << size_log2
        self._mask = size - 1
        self._tag_mask = (1 << cfg.tag_bits) - 1
        self._pc_shift = size_log2 // 2 + 1
        # packed per-table stores (struct-of-arrays)
        self._ctr_tables = [signed_store(size, cfg.counter_bits)
                            for _ in range(num_tables)]
        self._tag_tables = [tag_store(size, cfg.tag_bits)
                            for _ in range(num_tables)]
        self._useful_tables = [unsigned_store(size)
                               for _ in range(num_tables)]
        # folded-history registers, SWAR-packed: three folds per table
        # (index, tag, tag<<1).  The compressed lengths are uniform across
        # tables, so each fold family lives in ONE big int with a fixed-
        # width lane per table — a whole-predictor fold advance is then a
        # handful of big-int ops, and predict() unpacks all table indices
        # (or tags) with a single struct.unpack.
        lengths = cfg.history_lengths
        self._hist_lengths = list(lengths)
        self._fi_len = size_log2
        self._ft0_len = cfg.tag_bits
        self._ft1_len = max(cfg.tag_bits - 1, 1)
        widest = max(self._fi_len, self._ft0_len, self._ft1_len)
        if widest > 31:
            raise ValueError("folded-history lanes wider than 31 bits")
        lane = 16 if widest <= 15 else 32  # lane must fit value << 1
        self._lane = lane
        self._fmt = f"<{num_tables}{'H' if lane == 16 else 'I'}"
        self._nbytes = num_tables * (lane // 8)
        ones = sum(1 << (i * lane) for i in range(num_tables))
        self._lane_ones = ones
        # per-family constants: lane-local fold-back bit and value mask
        self._fi_hi = ones << self._fi_len
        self._ft0_hi = ones << self._ft0_len
        self._ft1_hi = ones << self._ft1_len
        self._fi_lmask = ((1 << self._fi_len) - 1) * ones
        self._ft0_lmask = ((1 << self._ft0_len) - 1) * ones
        self._ft1_lmask = ((1 << self._ft1_len) - 1) * ones
        self._FI = 0
        self._FT0 = 0
        self._FT1 = 0
        # clamp tables (shared across instances via the storage-level cache)
        self._ctr_inc, self._ctr_dec = signed_clamp_tables(cfg.counter_bits)
        self._useful_inc, _ = clamp_tables(0, self._useful_max)
        self._base_inc, self._base_dec = clamp_tables(0, 3)
        base_size = 1 << cfg.base_size_log2
        self._base = unsigned_store(base_size, 1)  # 2-bit, weakly not-taken
        self._base_mask = base_size - 1
        self._history = HistoryBuffer(cfg.max_history + 2)
        # per-table fold rows: [tail pointer, lane-positioned outgoing-bit
        # masks for each fold family].  The tail always sits at
        # ``head - hist_lengths[i] (mod size)``, advanced in lockstep with
        # the head, so _push_history reads the outgoing bit with a wrap
        # test instead of a modulo and ORs precomputed lane constants.
        hist_size = cfg.max_history + 2
        self._fold_rows = [
            [(-length) % hist_size,
             1 << (i * lane + length % self._fi_len),
             1 << (i * lane + length % self._ft0_len),
             1 << (i * lane + length % self._ft1_len)]
            for i, length in enumerate(lengths)]
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
        self._indices = (0,) * num_tables
        self._tags = (0,) * num_tables

    # -- prediction ---------------------------------------------------------

    def base_predict(self, pc: int) -> bool:
        return self._base[pc & self._base_mask] >= 2

    def predict(self, pc: int) -> bool:
        provider = -1
        alt = -1
        tag_tables = self._tag_tables
        # the table size is uniform, so the PC contribution to every
        # table's index hash is one lane-broadcast; the per-table xors
        # happen lane-parallel on the packed fold ints and ALL table
        # indices/tags materialize in a single C-level unpack each
        ones = self._lane_ones
        fmt = self._fmt
        nbytes = self._nbytes
        pcx = pc ^ (pc >> self._pc_shift)
        indices = unpack(fmt, (self._FI ^ ((pcx & self._mask) * ones))
                         .to_bytes(nbytes, "little"))
        tags = unpack(fmt, (self._FT0 ^ (self._FT1 << 1)
                            ^ ((pc & self._tag_mask) * ones))
                      .to_bytes(nbytes, "little"))
        self._indices = indices
        self._tags = tags
        for i in range(self._num_tables - 1, -1, -1):
            if tag_tables[i][indices[i]] == tags[i]:
                if provider < 0:
                    provider = i
                else:
                    alt = i
                    break
        self._ctx_pc = pc
        self._provider = provider
        self._alt_provider = alt

        if alt >= 0:
            index = indices[alt]
            self._alt_index = index
            self._alt_pred = self._ctr_tables[alt][index] >= 0
        else:
            self._alt_index = -1
            self._alt_pred = self._base[pc & self._base_mask] >= 2

        if provider >= 0:
            index = indices[provider]
            self._provider_index = index
            ctr = self._ctr_tables[provider][index]
            self._provider_pred = ctr >= 0
            if -1 <= ctr <= 0 and self._use_alt_on_na >= 0:
                self._final_pred = self._alt_pred
            else:
                self._final_pred = self._provider_pred
        else:
            self._provider_index = -1
            self._provider_pred = self._alt_pred
            self._final_pred = self._alt_pred
        return self._final_pred

    #: Confidence of the last prediction: True when the provider counter is
    #: saturated-ish (used by the statistical corrector).
    def last_confidence_high(self) -> bool:
        if self._provider < 0:
            return False
        ctr = self._ctr_tables[self._provider][self._provider_index]
        return ctr <= self._ctr_min + 1 or ctr >= self._ctr_max - 1

    # -- update ---------------------------------------------------------------

    def update(self, pc: int, taken: bool) -> None:
        if pc != self._ctx_pc:
            # predict() must precede update() for the same branch; recover by
            # recomputing the prediction context.
            self.predict(pc)
        mispredicted = self._final_pred != taken

        provider = self._provider
        if provider >= 0:
            ctr_table = self._ctr_tables[provider]
            useful_table = self._useful_tables[provider]
            index = self._provider_index
            # use_alt_on_na training: only when the provider entry was weak
            ctr = ctr_table[index]
            if -1 <= ctr <= 0 and self._provider_pred != self._alt_pred:
                if self._alt_pred == taken:
                    if self._use_alt_on_na < 7:
                        self._use_alt_on_na += 1
                elif self._use_alt_on_na > -8:
                    self._use_alt_on_na -= 1
            # useful bit: provider differed from alt and was right/wrong
            if self._provider_pred != self._alt_pred:
                if self._provider_pred == taken:
                    useful_table[index] = \
                        self._useful_inc[useful_table[index]]
                else:
                    useful = useful_table[index]
                    if useful:
                        useful_table[index] = useful - 1
            # provider counter
            ctr_min = self._ctr_min
            if taken:
                ctr_table[index] = self._ctr_inc[ctr - ctr_min]
            else:
                ctr_table[index] = self._ctr_dec[ctr - ctr_min]
            # train alt/base when provider entry is unreliable
            if useful_table[index] == 0:
                self._update_alt(pc, taken)
        else:
            self._update_base(pc, taken)

        if mispredicted and provider < self._num_tables - 1:
            self._allocate(pc, taken, provider)

        self._tick += 1
        if self._tick % self.config.useful_reset_period == 0:
            self._graceful_useful_reset()

        self._push_history(taken)
        self._ctx_pc = -1

    def _update_alt(self, pc: int, taken: bool) -> None:
        alt = self._alt_provider
        if alt >= 0:
            ctr_table = self._ctr_tables[alt]
            index = self._alt_index
            if taken:
                ctr_table[index] = \
                    self._ctr_inc[ctr_table[index] - self._ctr_min]
            else:
                ctr_table[index] = \
                    self._ctr_dec[ctr_table[index] - self._ctr_min]
        else:
            self._update_base(pc, taken)

    def _update_base(self, pc: int, taken: bool) -> None:
        base = self._base
        index = pc & self._base_mask
        if taken:
            base[index] = self._base_inc[base[index]]
        else:
            base[index] = self._base_dec[base[index]]

    def _allocate(self, pc: int, taken: bool, provider: int) -> None:
        """Allocate a new entry in a longer-history table on a mispredict."""
        start = provider + 1
        num_tables = self._num_tables
        useful_tables = self._useful_tables
        indices = self._indices
        candidates = [i for i in range(start, num_tables)
                      if useful_tables[i][indices[i]] == 0]
        if not candidates:
            # nothing free: age the useful bits of all longer tables
            for i in range(start, num_tables):
                useful_table = useful_tables[i]
                index = indices[i]
                useful = useful_table[index]
                if useful:
                    useful_table[index] = useful - 1
            return
        # prefer shorter histories, skipping each with probability 1/2
        # (LFSR-driven), as in the reference TAGE implementation
        chosen = candidates[0]
        for i in candidates:
            if self._lfsr.bits(1) == 0:
                chosen = i
                break
        index = indices[chosen]
        self._tag_tables[chosen][index] = self._tags[chosen]
        self._ctr_tables[chosen][index] = 0 if taken else -1
        useful_tables[chosen][index] = 0

    def _graceful_useful_reset(self) -> None:
        """Alternately clear the high/low useful bit of every entry.

        The packed useful stores are bytearrays, so each table resets with
        one C-level ``translate`` instead of a Python loop over every entry.
        """
        phase = (self._tick // self.config.useful_reset_period) & 1
        table = mask_translation(1 if phase else 0xFE)
        for useful in self._useful_tables:
            useful[:] = useful.translate(table)

    def _push_history(self, taken: bool) -> None:
        # All three folded histories of every table advance here, lane-
        # parallel: the per-table loop only gathers each table's outgoing
        # history bit (ORing a precomputed lane constant), then each fold
        # family advances with five big-int ops regardless of table count.
        new_bit = 1 if taken else 0
        history = self._history
        buffer = history._buffer
        size = history._size
        head = history._head + 1
        if head == size:
            head = 0
        history._head = head
        buffer[head] = new_bit
        old_i = old_t0 = old_t1 = 0
        for row in self._fold_rows:
            tail = row[0] + 1
            if tail == size:
                tail = 0
            row[0] = tail
            if buffer[tail]:
                old_i += row[1]
                old_t0 += row[2]
                old_t1 += row[3]
        nb = self._lane_ones if new_bit else 0
        # per lane: comp = ((f << 1) | new_bit) ^ (old_bit << shift);
        #           comp ^= comp >> len;  f = comp & mask
        # lanes are wide enough that << 1 and the fold-back bit never
        # cross a lane boundary
        comp = ((self._FI << 1) | nb) ^ old_i
        comp ^= (comp & self._fi_hi) >> self._fi_len
        self._FI = comp & self._fi_lmask
        comp = ((self._FT0 << 1) | nb) ^ old_t0
        comp ^= (comp & self._ft0_hi) >> self._ft0_len
        self._FT0 = comp & self._ft0_lmask
        comp = ((self._FT1 << 1) | nb) ^ old_t1
        comp ^= (comp & self._ft1_hi) >> self._ft1_len
        self._FT1 = comp & self._ft1_lmask

    def hash_block(self, pcs, takens):
        """Materialize every event's (indices, tags) rows, advancing folds.

        The ``predict()``-side hash expressions plus the ``update()``-side
        history push, with all table lookups stripped: table indices and
        tags are a function of the PC and the outcome stream alone, never
        of table state, so the batched kernel drives ONE fresh instance as
        the shared fold engine of a whole geometry group and reuses the
        returned rows for every lane.
        """
        ones = self._lane_ones
        fmt = self._fmt
        nbytes = self._nbytes
        mask = self._mask
        tag_mask = self._tag_mask
        shift = self._pc_shift
        push = self._push_history
        idx_rows = []
        tag_rows = []
        append_idx = idx_rows.append
        append_tag = tag_rows.append
        for pc, taken in zip(pcs, takens):
            pcx = pc ^ (pc >> shift)
            append_idx(unpack(fmt, (self._FI ^ ((pcx & mask) * ones))
                              .to_bytes(nbytes, "little")))
            append_tag(unpack(fmt, (self._FT0 ^ (self._FT1 << 1)
                                    ^ ((pc & tag_mask) * ones))
                              .to_bytes(nbytes, "little")))
            push(taken)
        return idx_rows, tag_rows

    # -- state export (lane packing / pristine checks) ----------------------

    def export_state(self) -> dict:
        """Every mutable field, as a comparable snapshot.

        The batched TAGE kernel (:mod:`repro.predictors.tage_batch`) gates
        a lane on this being equal to a freshly constructed predictor of
        the same config — the kernel starts its packed words from the
        construction fill values, so any trained state would drift.  Table
        stores are exported by reference (cheap; ``array``/``bytearray``
        compare elementwise), scalars by value.
        """
        return {
            "ctr": self._ctr_tables,
            "tag": self._tag_tables,
            "useful": self._useful_tables,
            "base": self._base,
            "use_alt_on_na": self._use_alt_on_na,
            "tick": self._tick,
            "lfsr": self._lfsr.state,
            "folds": (self._FI, self._FT0, self._FT1),
            "history": (bytes(self._history._buffer), self._history._head),
            "fold_tails": [row[0] for row in self._fold_rows],
        }

    # -- packed fold-state views (differential tests / introspection) -------

    def _unpack_lanes(self, packed: int):
        return unpack(self._fmt, packed.to_bytes(self._nbytes, "little"))

    @property
    def _f_index(self):
        return self._unpack_lanes(self._FI)

    @property
    def _f_tag0(self):
        return self._unpack_lanes(self._FT0)

    @property
    def _f_tag1(self):
        return self._unpack_lanes(self._FT1)

    def storage_bits(self) -> int:
        return self.config.storage_bits()
