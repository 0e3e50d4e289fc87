"""Packed-lane TAGE batch kernel: N TAGE/TAGE-SC-L lanes, one stream pass.

The batched replay engine (:mod:`repro.predictors.batched`) hands this
module the TAGE-family lanes of a large sweep, the paper's own baseline
axis (TAGE-SC-L 64/80KB, MTAGE-SC).  The stream stays sequential (TAGE
state depends serially on global history, allocation and the tick
counter); what runs in parallel is the *lane* axis, inside Python ints
("SIMD within a register").

Structure
---------

* **Geometry groups.**  Table indices and tags are functions of the PC and
  the outcome stream alone, never of table state, so lanes that agree on
  the hash geometry (``num_tables``, ``table_size_log2``, ``tag_bits``,
  history lengths; plus the corrector's sizing for TAGE-SC-L lanes) share
  ONE fresh predictor as their fold engine, which materializes each
  event's index/tag row once per group (`TagePredictor.hash_block`), one
  block of events at a time.  Every lane of a group therefore reads the
  *same* entry of each table on each event.

* **Packed lanes.**  That shared entry is one Python int per field.  Lane
  ``k`` owns bits ``[32k, 32k + 32)`` of every word: its value sits in the
  low bits and bit 31, the guard, stays clear.  Adding ``2**31 - 1`` to a
  lane carries into its guard exactly when the lane is non-zero, so one
  ``^`` against the broadcast event tag plus one add and one mask test
  every lane's tag match at once.  Tags, counters, useful bits, the
  bimodal base, ``use_alt_on_na``, the corrector's counters and
  thresholds, and the allocation LFSRs all live this way; signed counters
  are stored biased (TAGE +64, corrector +32) so each lane holds a
  non-negative value and a sign test reads one bit.  Tags are read from
  the words on every event, so an allocation is visible to the next event
  by construction.

* **Per-lane bounds.**  Lanes of one group may differ in counter and
  useful widths, base table size, reset period and loop table size.
  Saturating steps compare against per-lane packed limits, the base keeps
  one table per distinct size (each holding only its lanes), and reset
  periods are tracked per lane.

* **Hoisted loop predictor.**  The loop predictor reads and trains on the
  ``(pc, taken)`` stream alone, so it runs once per distinct loop
  geometry, as a plain :class:`LoopPredictor`, ahead of each block; the
  kernel reads every lane's ``(valid, direction)`` as two lane masks.

* **Lane-parallel allocation.**  All lanes' 16-bit LFSR states share one
  int.  At each candidate table the lanes still drawing step together
  under their mask, so a lane's draw sequence is the scalar one.

Bit-identity to the scalar ``predict → update`` discipline — mispredict
PC sequences, and therefore MPKI, per-PC breakdowns, and payload digests —
is the contract, pinned by ``tests/test_tage_batch_differential.py``
against the reference implementations and by ``tests/test_batch_replay.py``
against the lockstep backend.  Lanes are gated on being *pristine* and
exact-type (`supported`); anything else stays on the lockstep path.
"""

from __future__ import annotations

from operator import getitem
from typing import Dict, List, Optional, Sequence, Tuple

from repro.predictors.counters import Lfsr
from repro.predictors.loop_predictor import LoopPredictor
from repro.predictors.statistical_corrector import StatisticalCorrector
from repro.predictors.tage import TagePredictor
from repro.predictors.tage_scl import TageSCL

#: Events per hash block: the fold engines and loop predictors produce
#: one block of rows at a time, so a long region holds bounded memory.
BLOCK_EVENTS = 1024

#: Width of one lane in a packed word; its top bit is the guard.
LANE_BITS = 32
_GUARD = LANE_BITS - 1

#: Biases that store signed counters as non-negative lane values.
_CTR_BIAS = 64  # TAGE counters, at most 7 bits wide
_SC_BIAS = 32   # corrector counters, [-32, 31]

__all__ = ["BLOCK_EVENTS", "supported", "stream_signature", "run_tage_lanes"]


# -- lane gating -------------------------------------------------------------

def _geometry_ok(cfg) -> bool:
    # envelopes of the packed lanes: a counter fits its +64 bias, useful
    # counters stay byte-wide (the scalar reset masks bytes), tags stay
    # below the guard bit; the table caps bound what a group allocates
    return (cfg.counter_bits <= 7
            and cfg.useful_bits <= 7
            and cfg.tag_bits <= 16
            and cfg.table_size_log2 <= 24
            and cfg.num_tables <= 52
            and cfg.base_size_log2 <= 30
            and cfg.useful_reset_period > 0)


def _pristine(predictor, fresh) -> bool:
    return predictor.export_state() == fresh.export_state()


def supported(predictor) -> bool:
    """Whether a lane qualifies for the packed-lane TAGE kernel.

    Exact-type checks (a subclass may override any step) plus geometry
    envelopes plus a full pristine-state comparison against a freshly
    constructed twin — the kernel starts its packed tables from the
    construction fill values, so trained state would silently drift.
    """
    if type(predictor) is TagePredictor:
        return (_geometry_ok(predictor.config)
                and _pristine(predictor, TagePredictor(predictor.config)))
    if type(predictor) is not TageSCL:
        return False
    if type(predictor.tage) is not TagePredictor \
            or type(predictor.loop) is not LoopPredictor \
            or type(predictor.corrector) is not StatisticalCorrector:
        return False
    loop = predictor.loop
    corrector = predictor.corrector
    if not (_geometry_ok(predictor.tage.config)
            and loop.size_log2 <= 24
            and loop.tag_bits <= 60
            and corrector.table_size_log2 <= 24):
        return False
    fresh = TageSCL(predictor.tage.config,
                    loop=LoopPredictor(loop.size_log2, loop.tag_bits),
                    corrector=StatisticalCorrector(
                        corrector.history_lengths,
                        corrector.table_size_log2))
    return _pristine(predictor, fresh)


def stream_signature(predictor) -> Optional[tuple]:
    """Key that fixes the predictor's predictions on any branch stream.

    Two pristine lanes the kernel supports predict every stream alike
    exactly when their `_dedupe_key` values are equal; a trained,
    unsupported or subclassed predictor has no such key and gets None.
    """
    return _dedupe_key(predictor) if supported(predictor) else None


def _tage_sig(cfg) -> tuple:
    return (cfg.num_tables, cfg.table_size_log2, cfg.tag_bits,
            cfg.max_history, tuple(cfg.history_lengths))


def _group_key(predictor) -> tuple:
    """Lanes sharing this key share hash engines (fold/index streams)."""
    if type(predictor) is TagePredictor:
        return ("tage", _tage_sig(predictor.config))
    corrector = predictor.corrector
    return ("scl", _tage_sig(predictor.tage.config),
            tuple(corrector.history_lengths), corrector.table_size_log2)


def _dedupe_key(predictor) -> tuple:
    """Full sizing signature: equal keys mean identical lane evolution."""
    if type(predictor) is TagePredictor:
        cfg = predictor.config
        return ("tage", _tage_sig(cfg), cfg.counter_bits, cfg.useful_bits,
                cfg.base_size_log2, cfg.useful_reset_period)
    cfg = predictor.tage.config
    loop = predictor.loop
    corrector = predictor.corrector
    return ("scl", _tage_sig(cfg), cfg.counter_bits, cfg.useful_bits,
            cfg.base_size_log2, cfg.useful_reset_period,
            loop.size_log2, loop.tag_bits,
            tuple(corrector.history_lengths), corrector.table_size_log2)


# -- entry point -------------------------------------------------------------

def run_tage_lanes(predictors, lanes: Sequence[int], pcs: List[int],
                   takens: List[int], split: int, min_lanes: int
                   ) -> Tuple[Dict[int, List[int]], Dict[int, int],
                              List[int]]:
    """Partition qualifying lanes into kernel groups and run each.

    Returns ``(results, alias, declined)``: per-lane mispredict lists for
    lanes the kernel ran, an alias map pointing duplicate-configuration
    lanes at their representative (duplicates share the representative's
    result *object*, whichever path produced it), and representative
    lanes from groups too small to beat lockstep (``min_lanes``) which
    the caller must route to the fallback.
    """
    reps: Dict[tuple, int] = {}
    alias: Dict[int, int] = {}
    groups: Dict[tuple, List[int]] = {}
    for lane in lanes:
        predictor = predictors[lane]
        key = _dedupe_key(predictor)
        if key in reps:
            alias[lane] = reps[key]
            continue
        reps[key] = lane
        groups.setdefault(_group_key(predictor), []).append(lane)
    results: Dict[int, List[int]] = {}
    declined: List[int] = []
    for members in groups.values():
        if len(members) < min_lanes:
            declined.extend(members)
            continue
        lists = _run_group([predictors[lane] for lane in members],
                           pcs, takens, split)
        for lane, mispredicts in zip(members, lists):
            results[lane] = mispredicts
    return results, alias, declined


# -- packed words ------------------------------------------------------------

def _pack(values) -> int:
    """One word holding ``values[k]`` in lane ``k``."""
    word = 0
    for lane, value in enumerate(values):
        word |= value << (lane * LANE_BITS)
    return word


def _step(word: int, lanes: int, up, top: int, bottom: int) -> int:
    """Saturating +1 (``up``) or -1 of ``word`` in the unit mask ``lanes``.

    ``top`` and ``bottom`` are guard offsets: ``word + top`` carries into
    the guard of each lane at its maximum, ``word + bottom`` into the
    guard of each lane above its minimum.
    """
    if up:
        return word + (lanes & ~((word + top) >> _GUARD))
    return word - (lanes & ((word + bottom) >> _GUARD))


def _lane_masks(keys) -> Dict[object, int]:
    """Full-lane mask of the lanes sharing each distinct key."""
    masks: Dict[object, int] = {}
    full = (1 << LANE_BITS) - 1
    for lane, key in enumerate(keys):
        masks[key] = masks.get(key, 0) | (full << (lane * LANE_BITS))
    return masks


def _loop_rows(loops, pcs, takens):
    """Every event's ``(valid, direction)`` loop lane masks.

    ``loops`` pairs one plain :class:`LoopPredictor` per distinct loop
    geometry with the unit mask of its lanes; each predicts and trains
    on the block exactly as its lanes' own would.
    """
    valid = [0] * len(pcs)
    direction = [0] * len(pcs)
    for loop, lanes in loops:
        predict = loop.predict
        update = loop.update
        for position, (pc, taken) in enumerate(zip(pcs, takens)):
            hit, taken_pred = predict(pc)
            if hit:
                valid[position] |= lanes
                if taken_pred:
                    direction[position] |= lanes
            update(pc, taken)
    return valid, direction


# -- the kernel --------------------------------------------------------------

def _run_group(reps, pcs, takens, split: int) -> List[List[int]]:
    """Advance one geometry group's lanes over the whole stream.

    Lane masks come in two spellings: *unit* masks set bit 0 of each
    chosen lane (they add and subtract as per-lane 0/1 steps) and *full*
    masks set all of its bits (they select words).  A comparison leaves
    its answer in the guard bits; ``>> shift`` turns those into units.
    """
    scl = type(reps[0]) is TageSCL
    tages = [p.tage if scl else p for p in reps]
    count = len(reps)
    shift = _GUARD
    width = LANE_BITS
    units = _pack([1] * count)
    guards = units << shift
    lows = guards - units  # x + lows carries into the guard iff x != 0

    def reach(values):
        # guard offset: x + reach(v) carries where lane x >= v
        return guards - _pack(values)

    # TAGE tables at the construction fill values: supported() admitted
    # pristine lanes only
    t0 = tages[0]
    num_tables = t0._num_tables
    size = t0._mask + 1
    tables = range(num_tables)
    tables_desc = tables[::-1]
    tag_tabs = [[0] * size for _ in tables]
    ctr_zero = _CTR_BIAS * units  # a counter of 0 in every lane
    ctr_tabs = [[ctr_zero] * size for _ in tables]
    use_tabs = [[0] * size for _ in tables]
    # per-lane saturation limits as guard offsets (see _step)
    ctr_top = reach([_CTR_BIAS + t._ctr_max for t in tages])
    ctr_bottom = reach([_CTR_BIAS + t._ctr_min + 1 for t in tages])
    use_top = reach([t._useful_max for t in tages])
    base_top = reach([3] * count)
    use_alt_top = reach([15] * count)
    weak_mask = 0xFE * units  # -1 <= counter <= 0: (biased + 1) & 0xFE == 64
    alloc_not_taken = ctr_zero - units
    use_alt = 8 * units  # use_alt_on_na + 8, in [0, 15]
    use_alt_on = units   # lanes where use_alt_on_na >= 0
    lfsr = Lfsr().state * units
    lfsr_low = 0x7FFF * units
    # bimodal base: one table per distinct size, holding its lanes only
    bases = [((1 << log2) - 1, [units & lanes] * (1 << log2), lanes)
             for log2, lanes in _lane_masks(
                 t.config.base_size_log2 for t in tages).items()]
    periods = [t.config.useful_reset_period for t in tages]
    next_reset = list(periods)
    next_due = min(next_reset)
    tick = 0

    if scl:
        # loop predictor: one plain instance per distinct loop geometry
        loops = [(LoopPredictor(*key), lanes & units)
                 for key, lanes in _lane_masks(
                     (p.loop.size_log2, p.loop.tag_bits)
                     for p in reps).items()]
        # statistical corrector (geometry shared across the group)
        sc0 = reps[0].corrector
        sc_engine = StatisticalCorrector(sc0.history_lengths,
                                         sc0.table_size_log2)
        n_sc = len(sc0.history_lengths)
        sc_size = 1 << sc0.table_size_log2
        sc_tabs = [[_SC_BIAS * units] * sc_size for _ in range(n_sc)]
        bias_tab = [_SC_BIAS * units] * (2 * sc_size)
        sc_top = reach([2 * _SC_BIAS - 1] * count)
        bias_mask = sc0._bias_mask
        # the biased sum 2 * (sum of stored counters) + 16 * pred + 128 is
        # the scalar's centered total plus ``center``; the 128 keeps
        # center - 4 * threshold non-negative for any table count
        center = (2 * _SC_BIAS - 1) * (n_sc + 1) + 8 + 128
        sc_pos = guards - center * units
        sc_pad = 128 * units
        thresholds = 6 * units
        thr_count = 4 * units  # threshold counter + 4, in [0, 8]
        thr_top = reach([31] * count)
        thr_bottom = reach([5] * count)

        def thr_limits(thresholds):
            # per multiple j of the threshold, a (hi, lo) pair: sum + hi
            # carries where sum >= center + j * thr, and lo - sum keeps
            # its guard where sum <= center - j * thr
            return [(guards - center * units - j * thresholds,
                     guards + center * units - j * thresholds)
                    for j in (1, 2, 4)]

        (hi1, lo1), (hi2, lo2), (hi4, lo4) = thr_limits(thresholds)

    # shared fold engine: one fresh instance per group (hashes depend on
    # the stream alone); the lane instances stay untouched
    engine = TagePredictor(t0.config)
    misses: List[Tuple[int, int]] = []

    for block_start in range(0, len(pcs), BLOCK_EVENTS):
        block_pcs = pcs[block_start:block_start + BLOCK_EVENTS]
        block_takens = takens[block_start:block_start + BLOCK_EVENTS]
        idx_rows, tag_rows = engine.hash_block(block_pcs, block_takens)
        if scl:
            sc_rows = sc_engine.hash_block(block_pcs, block_takens)
            loop_valid, loop_dir = _loop_rows(loops, block_pcs,
                                              block_takens)

        for position, pc in enumerate(block_pcs):
            taken = block_takens[position]
            taken_u = units if taken else 0
            idx = idx_rows[position]
            tag_row = tag_rows[position]

            # provider (longest match) and alternate (next longest) per
            # lane; cover[t] holds the lanes matching some table >= t
            seen1 = seen2 = 0
            ctr_p = ctr_a = use_p = 0
            provs = []
            alts = []
            cover = [0] * num_tables
            for t in tables_desc:
                i = idx[t]
                match = guards & ~((tag_tabs[t][i] ^ tag_row[t] * units)
                                   + lows)
                if match:
                    new = match & ~seen1
                    if new:
                        full = (new << 1) - (new >> shift)
                        ctr_p |= ctr_tabs[t][i] & full
                        use_p |= use_tabs[t][i] & full
                        provs.append((t, i, full))
                    second = (match ^ new) & ~seen2
                    if second:
                        full = (second << 1) - (second >> shift)
                        ctr_a |= ctr_tabs[t][i] & full
                        alts.append((t, i, full))
                    seen2 |= match ^ new
                    seen1 |= match
                cover[t] = seen1
            has_prov = seen1 >> shift
            has_alt = seen2 >> shift
            base_val = 0
            for mask, table, _ in bases:
                base_val |= table[pc & mask]
            prov_pred = (ctr_p >> 6) & units
            alt_pred = ((ctr_a >> 6) & has_alt) \
                | ((base_val >> 1) & (units ^ has_alt))
            weak = units & ~(((((ctr_p + units) & weak_mask) ^ ctr_zero)
                              + lows) >> shift)
            use_prov = has_prov & ~(weak & use_alt_on)
            tage_pred = alt_pred ^ ((prov_pred ^ alt_pred) & use_prov)

            if scl:
                lv = loop_valid[position]
                pred = tage_pred ^ ((loop_dir[position] ^ tage_pred) & lv)
                # corrector sum over every lane at once
                sc_row = sc_rows[position]
                words = list(map(getitem, sc_tabs, sc_row))
                b_index = (pc << 1) & bias_mask
                b0 = bias_tab[b_index]
                b1 = bias_tab[b_index | 1]
                b_sel = b0 ^ ((b0 ^ b1) & ((pred << width) - pred))
                total = ((sum(words) + b_sel) << 1) + (pred << 4) + sc_pad
                sc_pred = ((total + sc_pos) >> shift) & units
                disagree = sc_pred ^ pred
                final = pred
                if disagree:
                    # override where |sum| >= thr; adapt the threshold
                    # where |sum| < 2 * thr (both before the adaptation)
                    final ^= disagree & (((total + hi1) | (lo1 - total))
                                         >> shift)
                    near = disagree & ~(((total + hi2) | (lo2 - total))
                                        >> shift)
                    if near:
                        right = near & ~(sc_pred ^ taken_u)
                        thr_count += (near ^ right) - right
                        wrap_low = units & ~((thr_count + lows) >> shift)
                        wrap_high = (thr_count >> 3) & units
                        if wrap_low or wrap_high:
                            thr_count += (wrap_low - wrap_high) << 2
                            thresholds = _step(
                                _step(thresholds, wrap_high, True, thr_top,
                                      thr_bottom),
                                wrap_low, False, thr_top, thr_bottom)
                            (hi1, lo1), (hi2, lo2), (hi4, lo4) = \
                                thr_limits(thresholds)
                # train where the final answer was wrong or |sum| < 4 * thr
                train = (final ^ taken_u) | (units & ~(
                    ((total + hi4) | (lo4 - total)) >> shift))
                if train:
                    for table, i, word in zip(sc_tabs, sc_row, words):
                        table[i] = _step(word, train, taken, sc_top, lows)
                    # the odd bias entry serves the lanes predicting taken
                    bias_tab[b_index] = _step(b0, train & ~pred, taken,
                                              sc_top, lows)
                    bias_tab[b_index | 1] = _step(b1, train & pred, taken,
                                                  sc_top, lows)
            else:
                final = tage_pred
            if tick >= split:  # tick counts the events before this one
                wrong = final ^ taken_u
                if wrong:
                    misses.append((pc, wrong))

            # TAGE update (trains on TAGE's own prediction)
            diff = prov_pred ^ alt_pred
            active = diff & has_prov
            train_ua = active & weak
            if train_ua:
                good = train_ua & ~(alt_pred ^ taken_u)
                use_alt = _step(_step(use_alt, good, True, use_alt_top, lows),
                                train_ua ^ good, False, use_alt_top, lows)
                use_alt_on = (use_alt >> 3) & units
            use_new = use_p
            if active:
                good = active & ~(prov_pred ^ taken_u)
                use_new = _step(_step(use_p, good, True, use_top, lows),
                                active ^ good, False, use_top, lows)
            ctr_new = _step(ctr_p, has_prov, taken, ctr_top, ctr_bottom)
            delta_ctr = ctr_new ^ ctr_p
            delta_use = use_new ^ use_p
            for t, i, full in provs:
                ctr_tabs[t][i] ^= delta_ctr & full
                if delta_use:
                    use_tabs[t][i] ^= delta_use & full
            # an entry left useless trains the alternate (or the base)
            unreliable = has_prov & ~((use_new + lows) >> shift)
            upd_alt = unreliable & has_alt
            upd_base = (unreliable ^ upd_alt) | (units ^ has_prov)
            if upd_alt:
                delta_ctr = ctr_a ^ _step(ctr_a, upd_alt, taken, ctr_top,
                                          ctr_bottom)
                for t, i, full in alts:
                    ctr_tabs[t][i] ^= delta_ctr & full
            if upd_base:
                delta = base_val ^ _step(base_val, upd_base, taken, base_top,
                                         lows)
                for mask, table, lanes in bases:
                    table[pc & mask] ^= delta & lanes

            # allocate on a TAGE mispredict when a longer table exists
            alloc = (tage_pred ^ taken_u) & ~(cover[-1] >> shift)
            if alloc:
                undecided = alloc  # lanes that have not drawn a 0 yet
                found = 0          # lanes with a candidate so far
                firsts = []
                picks = []
                eligible = []
                for t in tables:
                    elig = alloc & ~(cover[t] >> shift)
                    if not elig:
                        continue
                    i = idx[t]
                    eligible.append((t, i, elig))
                    free = elig & ~((use_tabs[t][i] + lows) >> shift)
                    if not free:
                        continue
                    first = free & ~found
                    if first:
                        found |= first
                        firsts.append((t, i, first))
                    draw = free & undecided
                    if draw:
                        # step the drawing lanes' LFSRs; a lane whose new
                        # low bit is 0 takes this table
                        state = lfsr & ((draw << width) - draw)
                        low = state & units
                        # (Lfsr.next: shift right, taps 0xB400 on a 1 out)
                        state_new = ((state >> 1) & lfsr_low) ^ (low * 0xB400)
                        lfsr ^= state ^ state_new
                        chosen = draw & ~state_new
                        if chosen:
                            undecided ^= chosen
                            picks.append((t, i, chosen))
                # lanes that drew only 1s take their first candidate
                leftover = undecided & found
                if leftover:
                    for t, i, first in firsts:
                        if first & leftover:
                            picks.append((t, i, first & leftover))
                fill = ctr_zero if taken else alloc_not_taken
                for t, i, chosen in picks:
                    full = (chosen << width) - chosen
                    tag_word = tag_tabs[t][i]
                    tag_tabs[t][i] = tag_word ^ ((tag_word
                                                  ^ tag_row[t] * units)
                                                 & full)
                    ctr_word = ctr_tabs[t][i]
                    ctr_tabs[t][i] = ctr_word ^ ((ctr_word ^ fill) & full)
                    use_tabs[t][i] &= ~full
                # no free entry: age every longer table's useful counter
                starved = alloc & ~found
                if starved:
                    for t, i, elig in eligible:
                        use_tabs[t][i] -= elig & starved

            tick += 1
            if tick == next_due:
                keep = -1
                for lane, due in enumerate(next_reset):
                    if due == tick:
                        mask = 1 if (tick // periods[lane]) & 1 else 0xFE
                        keep ^= (0xFF ^ mask) << (lane * LANE_BITS)
                        next_reset[lane] = tick + periods[lane]
                next_due = min(next_reset)
                for table in use_tabs:
                    table[:] = [word & keep for word in table]

    # per-lane measured mispredicts, in stream order
    return [[pc for pc, wrong in misses if wrong >> (lane * LANE_BITS) & 1]
            for lane in range(count)]
