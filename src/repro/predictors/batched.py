"""Batched K-lane predictor replay: one branch stream, many predictors.

An MPKI sweep replays the *same* committed branch stream through N
predictor configurations.  Run scalar, that costs N full Python loops of
``observe(pc, taken)``; this module advances all N lanes over one pass
of the stream, which is where the sweep fast path's 10x comes from.

Pristine lanes of the supported families run per-family vectorized numpy
kernels over the whole stream:

* *saturating-counter tables* (bimodal, gshare): the full index stream
  of a lane is computable up front (bimodal indexes on the PC alone;
  gshare's global history is a pure function of the outcome column, so
  every lane's history register materializes as one shifted-OR pass).
  Each table entry then evolves independently, and the per-entry
  counter walk is solved with a segmented prefix *composition* scan:
  events sort by table index (stable, so stream order survives inside
  a segment), each event becomes its transition map over the counter's
  state space, and a Hillis–Steele pass composes maps within segments
  in ``log2(longest segment)`` steps.  The state *before* each event —
  the prediction — is the previous event's composed map applied to the
  pristine fill value.
* *perceptrons*: K lanes' weight tables stack into one ``(rows,
  max_history+1)`` matrix; each branch is one gather + mat-vec +
  masked training update across all K lanes at once (columns past a
  lane's own history length are never trained, stay zero, and thus
  never contribute to its dot product).
* *TAGE / TAGE-SC-L / MTAGE*: lanes grouped by geometry signature
  share one folded-history/index/tag materialization and advance
  lane-stacked counter matrices through LUT-compiled automata — see
  :mod:`repro.predictors.tage_batch`.  The kernel engages once a
  geometry group reaches the minimum-lane cutover
  (:func:`tage_min_lanes`); smaller groups stay on lockstep, where
  the scalar loop is faster.

The vectorized kernels assume a *pristine* (freshly constructed)
predictor — the scan starts every table entry from the fill value — so
each lane is checked and falls back to :func:`_lockstep` when it has
trained state, is a subclass, or uses an unsupported geometry.  Remaining
families (local-history, loop-only hybrids, custom subclasses) always take
that path, as does an empty stream.  Lockstep is a scalar loop sharing
one pass of the stream (and one ``bool()`` conversion of the outcome
column) across lanes, driving each instance's own ``observe``; it is also
the differential reference the kernels are pinned against in
``tests/test_batch_replay.py``.

Both paths reproduce ``predict → update`` per branch bit-exactly, so
per-lane mispredicted-PC sequences — and therefore MPKI, per-PC
breakdowns, and payload digests — match a scalar predict/update loop
(the reference ``tests/test_batch_replay.py`` keeps) for every lane.
After a *vectorized* lane runs, the predictor instance's own table state
is NOT advanced (the kernel keeps the evolution in its own arrays);
batch callers treat lane predictors as consumed.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.predictors import tage_batch
from repro.predictors.base import BranchPredictor
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gshare import GSharePredictor
from repro.predictors.perceptron import PerceptronPredictor

#: Below this many pristine perceptron lanes the per-event numpy overhead
#: outweighs the stacked-lane win; lockstep is faster.
MIN_PERCEPTRON_LANES = 3

#: TAGE-lane cutover when the caller passes no ``min_lanes`` and
#: :func:`warm_backend` has not calibrated one: below this many
#: same-geometry lanes the columnar TAGE kernel's per-event numpy
#: overhead loses to lockstep.
DEFAULT_TAGE_MIN_LANES = 8

#: :func:`warm_backend` calibration result (None until it runs).
_calibrated_tage_min: Optional[int] = None

#: The counter scan keeps per-event transition maps in uint8.
_MAX_SCAN_STATES = 256


def warm_backend() -> None:
    """Pay the batch kernels' one-time costs now.

    Runs a miniature batch so the scan LUT is built and numpy's
    lazily-initialized kernel paths (argsort, take, cumsum, ...) are
    primed, then times a miniature TAGE kernel against its own
    scalar lockstep to calibrate the auto TAGE-lane cutover (see
    :func:`tage_min_lanes`).  Perf harnesses call this off-clock so a
    timed first batch measures kernel throughput, not interpreter warmup.
    """
    pcs = [(i * 97) & 0xFFFF for i in range(256)]
    takens = [bool((i * 11) & 4) for i in range(256)]
    replay_lanes([BimodalPredictor(size_log2=6),
                  GSharePredictor(size_log2=6, history_bits=4)],
                 pcs, takens, 16)
    _calibrate_tage_min()


def _calibrate_tage_min() -> None:
    """Measure the TAGE kernel-vs-lockstep breakeven on this machine.

    The columnar kernel's wall per event is nearly lane-count-flat while
    lockstep scales linearly, so the breakeven lane count is roughly
    (kernel seconds for one stream) / (scalar seconds for one lane).
    A tiny geometry keeps this cheap (~10ms); the ratio transfers well
    enough for a default, and an explicit ``min_lanes`` argument wins.
    """
    global _calibrated_tage_min
    if _calibrated_tage_min is not None:
        return
    from time import perf_counter

    from repro.predictors.tage import TageConfig, TagePredictor
    config = TageConfig(num_tables=4, table_size_log2=6, tag_bits=7,
                        min_history=2, max_history=16, base_size_log2=8,
                        useful_reset_period=1 << 9)
    pcs = [(i * 193) & 0x3FF for i in range(512)]
    takens = [bool((i * 29 >> 2) & 1) for i in range(512)]
    scalar = TagePredictor(config)
    observe = scalar.observe
    start = perf_counter()
    for pc, taken in zip(pcs, takens):
        observe(pc, taken)
    scalar_wall = perf_counter() - start
    pcs_v = np.asarray(pcs, dtype=np.int64)
    taken_v = np.asarray(takens, dtype=bool)
    kernel_lanes = [TagePredictor(config) for _ in range(4)]
    start = perf_counter()
    tage_batch.run_tage_lanes(np, kernel_lanes, range(4), pcs_v, taken_v,
                              len(pcs), min_lanes=1)
    kernel_wall = perf_counter() - start
    if scalar_wall <= 0:
        _calibrated_tage_min = DEFAULT_TAGE_MIN_LANES
        return
    breakeven = -(-kernel_wall // scalar_wall)  # ceil of the ratio
    _calibrated_tage_min = max(4, min(16, int(breakeven)))


def tage_min_lanes(explicit: Optional[int] = None) -> int:
    """Resolve the TAGE kernel's minimum-lane cutover.

    Precedence: a positive ``explicit`` value > the :func:`warm_backend`
    calibration > :data:`DEFAULT_TAGE_MIN_LANES`.  ``None`` and ``0``
    both mean auto.
    """
    if explicit is not None and explicit > 0:
        return explicit
    return _calibrated_tage_min or DEFAULT_TAGE_MIN_LANES


def replay_lanes(predictors: Sequence[BranchPredictor],
                 pcs: Sequence[int], takens: Sequence[int],
                 split: int,
                 min_lanes: Optional[int] = None) -> List[List[int]]:
    """Advance every lane over one branch stream; return its mispredicts.

    ``pcs``/``takens`` are the stream's columns (any int sequences; the
    columnar :class:`~repro.sim.branch_events.BranchColumns` arrays in
    practice) and ``split`` is the warmup boundary: events before it
    train only, events at or after it are measured.  Lane ``k``'s return
    value is the list of measured PCs predictor ``k`` mispredicted, in
    stream order — exactly the list a scalar predict/update loop
    accumulates.

    ``min_lanes`` gates the columnar TAGE kernel: a geometry group with
    fewer unique lanes than this falls back to lockstep.  ``None`` and
    ``0`` both mean auto (see :func:`tage_min_lanes`); tests pass a
    value to force either path.
    """
    if len(pcs) == 0:
        return _lockstep(predictors, pcs, takens, split)
    if len(predictors) == 1 \
            and type(predictors[0]) not in (BimodalPredictor,
                                            GSharePredictor) \
            and tage_min_lanes(min_lanes) > 1:
        # a lone lane no counter scan takes would reach lockstep through
        # _numpy_lanes anyway (a perceptron or TAGE lane alone is below
        # its kernel's cutover): skip the numpy set-up
        return _lockstep(predictors, pcs, takens, split)
    return _numpy_lanes(np, predictors, pcs, takens, split,
                        tage_min_lanes(min_lanes))


# -- lockstep fallback -------------------------------------------------------

def _lockstep(predictors: Sequence[BranchPredictor],
              pcs: Sequence[int], takens: Sequence[int],
              split: int) -> List[List[int]]:
    """Scalar fallback: one stream pass feeding every lane in lockstep.

    Valid for any predictor in any starting state — it drives the
    instances' own ``observe`` — so it is the escape hatch for
    trained/unsupported lanes and empty streams.
    """
    outcomes = [bool(taken) for taken in takens]
    lanes: List[List[int]] = [[] for _ in predictors]
    observes = [predictor.observe for predictor in predictors]
    for position in range(split):
        pc = pcs[position]
        taken = outcomes[position]
        for observe in observes:
            observe(pc, taken)
    pairs = list(zip(observes, [lane.append for lane in lanes]))
    for position in range(split, len(pcs)):
        pc = pcs[position]
        taken = outcomes[position]
        for observe, record in pairs:
            if observe(pc, taken) != taken:
                record(pc)
    return lanes


# -- vectorized kernels ------------------------------------------------------

def _uniform(store, value: int) -> bool:
    if isinstance(store, (bytes, bytearray)):
        return store.count(value) == len(store)
    return all(element == value for element in store)


def _pristine_bimodal(predictor: BimodalPredictor) -> bool:
    return (predictor.counter_bits <= 8
            and predictor._max + 1 <= _MAX_SCAN_STATES
            and predictor.size_log2 <= 30  # int32 index domain
            and _uniform(predictor.table, predictor._threshold - 1))


def _pristine_gshare(predictor: GSharePredictor) -> bool:
    return (predictor.history == 0
            and predictor.size_log2 <= 30  # int32 index domain
            and predictor.history_bits <= 30
            and _uniform(predictor.table, 1))


def _pristine_perceptron(predictor: PerceptronPredictor) -> bool:
    return (all(not any(row) for row in predictor.weights)
            and all(bit == 1 for bit in predictor._history))


def _numpy_lanes(np, predictors, pcs, takens, split, min_tage_lanes):
    results: List[Optional[List[int]]] = [None] * len(predictors)
    pcs_v = np.asarray(pcs).astype(np.int64)
    taken_v = np.frombuffer(bytes(takens), dtype=np.uint8) != 0
    stacked: List[int] = []
    perceptrons: List[int] = []
    tage_lanes: List[int] = []
    fallback: List[int] = []
    for lane, predictor in enumerate(predictors):
        # exact-type checks: a subclass may override predict/update, and
        # bit-identity to the instance's own behaviour is the contract
        if type(predictor) is BimodalPredictor \
                and _pristine_bimodal(predictor):
            if predictor.counter_bits == 2:
                stacked.append(lane)
            else:
                index_v = pcs_v & predictor._mask
                preds = _counter_scan(np, index_v, taken_v,
                                      predictor._max + 1,
                                      predictor._threshold - 1,
                                      predictor._threshold)
                results[lane] = _mispredicted(pcs_v, taken_v, preds,
                                              split)
        elif type(predictor) is GSharePredictor \
                and _pristine_gshare(predictor):
            stacked.append(lane)
        elif type(predictor) is PerceptronPredictor \
                and _pristine_perceptron(predictor):
            perceptrons.append(lane)
        elif tage_batch.supported(predictor):
            tage_lanes.append(lane)
        else:
            fallback.append(lane)
    if stacked:
        # every 2-bit weakly-not-taken lane (bimodal and gshare alike)
        # shares one scan; one shifted-OR history pass serves every
        # gshare lane — a lane with fewer history bits just masks the
        # shared register down
        pcs32 = pcs_v.astype(np.int32)
        gshare_bits = [predictors[lane].history_bits for lane in stacked
                       if type(predictors[lane]) is GSharePredictor]
        history_v = _history_vector(np, taken_v, max(gshare_bits)) \
            if gshare_bits else None
        index_m = np.empty((len(stacked), len(pcs_v)), dtype=np.int32)
        for row, lane in enumerate(stacked):
            predictor = predictors[lane]
            if type(predictor) is BimodalPredictor:
                np.bitwise_and(pcs32, np.int32(predictor._mask),
                               out=index_m[row])
            else:
                index_m[row] = ((pcs32
                                 ^ (history_v & predictor._history_mask))
                                & predictor._index_mask)
        # XOR-canonicalize each row by its first element: two rows that
        # differ by a constant XOR (a table-size sweep over a code
        # footprint smaller than the smallest table, say) induce the same
        # partition of events into table entries, and the prediction
        # stream depends only on that partition — so every distinct
        # canonical row is scanned exactly once and its mispredict list
        # is copied out to each equivalent lane
        if len(stacked) > 1:
            canon = index_m ^ index_m[:, :1]
            seen: dict = {}
            firsts: List[int] = []
            inverse: List[int] = []
            for row in range(len(stacked)):
                unique_id = seen.setdefault(canon[row].tobytes(),
                                            len(firsts))
                if unique_id == len(firsts):
                    firsts.append(row)
                inverse.append(unique_id)
            rows_u = canon if len(firsts) == len(stacked) \
                else canon[firsts]
        else:
            rows_u, inverse = index_m, [0]
        preds = _counter_scan_stacked(np, rows_u, taken_v)
        shared: dict = {}
        for row, lane in enumerate(stacked):
            unique_row = int(inverse[row])
            if unique_row not in shared:
                shared[unique_row] = _mispredicted(
                    pcs_v, taken_v, preds[unique_row], split)
            # equivalent lanes share one list *object* so downstream
            # aggregation (per-PC Counters) can memoize by identity
            results[lane] = shared[unique_row]
    if len(perceptrons) >= MIN_PERCEPTRON_LANES:
        lanes = _perceptron_lanes(
            np, [predictors[lane] for lane in perceptrons],
            pcs_v, taken_v, split)
        for lane, mispredicts in zip(perceptrons, lanes):
            results[lane] = mispredicts
    else:
        fallback.extend(perceptrons)
    alias: dict = {}
    if tage_lanes:
        kernel_results, alias, declined = tage_batch.run_tage_lanes(
            np, predictors, tage_lanes, pcs_v, taken_v, split,
            min_tage_lanes)
        for lane, mispredicts in kernel_results.items():
            results[lane] = mispredicts
        # geometry groups below the cutover lose to lockstep: route their
        # unique representatives through the fallback with everyone else
        fallback.extend(declined)
    if fallback:
        fallback.sort()
        lanes = _lockstep([predictors[lane] for lane in fallback],
                          pcs, takens, split)
        for lane, mispredicts in zip(fallback, lanes):
            results[lane] = mispredicts
    # duplicate-configuration TAGE lanes share their representative's
    # mispredict-list *object* (kernel or lockstep alike), so downstream
    # per-PC aggregation memoizes by identity — same contract as the
    # counter-scan's XOR-canonical dedupe above
    for lane, representative in alias.items():
        results[lane] = results[representative]
    return results


def _mispredicted(pcs_v, taken_v, preds, split) -> List[int]:
    wrong = preds[split:] != taken_v[split:]
    return pcs_v[split:][wrong].tolist()


def _history_vector(np, taken_v, bits: int):
    """Every event's pre-update global history register, in one pass.

    gshare shifts the outcome in after each branch, so before event ``i``
    bit ``j-1`` of the register holds the outcome of event ``i-j`` (zero
    before the stream starts — the register initializes to 0).
    """
    history = np.zeros(len(taken_v), dtype=np.int32)
    outcomes = taken_v.astype(np.int32)
    for j in range(1, bits + 1):
        if j >= len(outcomes):
            break
        history[j:] |= outcomes[:-j] << (j - 1)
    return history


# A monotone transition map over the 4-state space packs into one byte:
# bits 2s..2s+1 hold f(s).  INC = saturating +1, DEC = saturating -1.
_INC4 = 0b11_11_10_01  # (1, 2, 3, 3)
_DEC4 = 0b10_01_00_00  # (0, 0, 1, 2)
_COMPOSE4 = None


def _compose4_lut(np):
    """(256*256,) byte-code composition table: LUT[l*256+e] = l after e."""
    global _COMPOSE4
    if _COMPOSE4 is None:
        codes = np.arange(256, dtype=np.uint16)
        table = np.empty((256, 4), dtype=np.uint8)
        for state in range(4):
            table[:, state] = (codes >> (2 * state)) & 3
        composed = table[np.arange(256)[:, None, None],
                         table[None, :, :]]  # [l, e, s] = l(e(s))
        _COMPOSE4 = (composed[..., 0]
                     | composed[..., 1] << 2
                     | composed[..., 2] << 4
                     | composed[..., 3] << 6).astype(np.uint8).ravel()
    return _COMPOSE4


def _counter_scan_stacked(np, index_m, taken_v):
    """Predictions of K stacked weakly-not-taken 2-bit lanes in one scan.

    Same segmented composition scan as :func:`_counter_scan`, but each
    event's transition map is one byte (composed through a 64K lookup
    table instead of a per-state gather) and all K lanes' sorted event
    streams concatenate into a single scan domain — per-row segment
    starts keep segments from spanning lanes, and numpy call overhead
    amortizes across the whole stack.  All lanes share the 2-bit
    geometry every stacked family uses: counters start at 1 (weakly
    not-taken) and predict taken at >= 2.
    """
    lanes, count = index_m.shape
    if index_m.dtype.itemsize > 2 and int(index_m.max()) < (1 << 16):
        # stable argsort radix-sorts 2-byte keys: ~10x over int32 merge
        index_m = index_m.astype(np.uint16)
    order = np.argsort(index_m, axis=1, kind="stable")
    sorted_index = np.take_along_axis(index_m, order, axis=1)
    seg_start = np.empty((lanes, count), dtype=bool)
    seg_start[:, 0] = True
    seg_start[:, 1:] = sorted_index[:, 1:] != sorted_index[:, :-1]
    # per-row longest segment, so rows whose segments are all composed can
    # drop out of the doubling loop early — otherwise one long-segment
    # lane (a bimodal over few static PCs, say) taxes every lane in the
    # stack for its full log2(longest) iterations
    starts_at = np.flatnonzero(seg_start.ravel())
    seg_lengths = np.diff(starts_at, append=np.int64(lanes * count))
    first_seg = np.searchsorted(starts_at, np.arange(lanes) * count)
    row_longest = np.maximum.reduceat(seg_lengths, first_seg)
    rank = np.argsort(-row_longest, kind="stable")
    order = order[rank]
    seg_start = seg_start[rank].ravel()
    sorted_longest = row_longest[rank]
    seg_id = np.cumsum(seg_start, dtype=np.int32)
    seg_id -= 1
    codes = np.where(taken_v[order], np.uint8(_INC4),
                     np.uint8(_DEC4)).ravel()
    lut = _compose4_lut(np)
    longest = int(sorted_longest[0])
    distance = 1
    while distance < longest:
        # rows are in descending-longest order; only the prefix whose
        # longest segment still exceeds the window participates
        active = int(np.searchsorted(-sorted_longest, -distance,
                                     side="left"))
        limit = active * count
        later = codes[distance:limit]
        flat = later.astype(np.int32)
        flat <<= 8
        flat += codes[:limit - distance]
        composed = np.take(lut, flat)
        same = seg_id[distance:limit] == seg_id[:limit - distance]
        np.copyto(later, composed, where=same)
        distance *= 2
    after = (codes >> 2) & 3  # composed map applied to the init state 1
    before = np.empty(lanes * count, dtype=np.uint8)
    before[0] = 1
    before[1:] = after[:-1]
    before[seg_start] = 1
    ranked = np.empty((lanes, count), dtype=bool)
    np.put_along_axis(ranked, order,
                      (before >= 2).reshape(lanes, count), axis=1)
    predictions = np.empty((lanes, count), dtype=bool)
    predictions[rank] = ranked
    return predictions


def _counter_scan(np, index_v, taken_v, n_states: int, init: int,
                  threshold: int):
    """Predictions of one saturating-counter table over the whole stream.

    Each table entry's counter evolves independently through its own
    subsequence of events, so: sort events by index (stable — stream
    order survives within a segment), express each event as a transition
    map over the counter's state space (saturating ±1), compose maps
    within each segment with a Hillis–Steele scan, and read the state
    *before* each event as the predecessor's composed map applied to the
    pristine ``init`` fill.  Returns the boolean prediction per event in
    original stream order.
    """
    count = len(index_v)
    order = np.argsort(index_v, kind="stable")
    sorted_taken = taken_v[order]
    sorted_index = index_v[order]
    seg_start = np.empty(count, dtype=bool)
    seg_start[0] = True
    seg_start[1:] = sorted_index[1:] != sorted_index[:-1]
    seg_id = np.cumsum(seg_start) - 1
    states = np.arange(n_states, dtype=np.int64)
    inc = np.minimum(states + 1, n_states - 1).astype(np.uint8)
    dec = np.maximum(states - 1, 0).astype(np.uint8)
    maps = np.where(sorted_taken[:, None], inc[None, :], dec[None, :])
    longest = int(np.bincount(seg_id).max())
    distance = 1
    while distance < longest:
        # maps[i] currently composes the last <= distance events of i's
        # segment ending at i; chaining the block ending at i-distance
        # in front doubles the window (apply the earlier block first)
        composed = np.take_along_axis(maps[distance:], maps[:-distance],
                                      axis=1)
        same = seg_id[distance:] == seg_id[:-distance]
        maps[distance:][same] = composed[same]
        distance *= 2
    after = maps[:, init]
    before = np.empty(count, dtype=np.uint8)
    before[0] = init
    before[1:] = after[:-1]
    before[seg_start] = init
    predictions = np.empty(count, dtype=bool)
    predictions[order] = before >= threshold
    return predictions


def _perceptron_lanes(np, predictors, pcs_v, taken_v, split):
    """K stacked perceptron lanes: one gather + mat-vec per branch.

    All lanes share the ±1 history vector (padded to the widest lane);
    a lane's padding columns are excluded from training, stay zero, and
    therefore never perturb its dot product.  Weight clipping matches
    the scalar ±1 saturating step exactly.
    """
    lane_count = len(predictors)
    max_bits = max(p.history_bits for p in predictors)
    width = max_bits + 1
    row_counts = [p.num_perceptrons for p in predictors]
    offsets = np.zeros(lane_count, dtype=np.int64)
    offsets[1:] = np.cumsum(np.asarray(row_counts[:-1], dtype=np.int64))
    weights = np.zeros((sum(row_counts), width), dtype=np.int64)
    pad = np.zeros((lane_count, width), dtype=np.int64)
    for lane, p in enumerate(predictors):
        pad[lane, :p.history_bits + 1] = 1
    thresholds = np.asarray([p.threshold for p in predictors],
                            dtype=np.int64)
    weight_min = np.asarray([p._weight_min for p in predictors],
                            dtype=np.int64)[:, None]
    weight_max = np.asarray([p._weight_max for p in predictors],
                            dtype=np.int64)[:, None]
    moduli = np.asarray(row_counts, dtype=np.int64)
    history = np.ones(max_bits, dtype=np.int64)
    mispredicts: List[List[int]] = [[] for _ in range(lane_count)]
    appends = [lane.append for lane in mispredicts]
    update = np.empty(width, dtype=np.int64)
    for position in range(len(pcs_v)):
        pc = pcs_v[position]
        rows = offsets + pc % moduli
        selected = weights[rows]
        outputs = selected[:, 0] + selected[:, 1:] @ history
        predictions = outputs >= 0
        taken = bool(taken_v[position])
        target = 1 if taken else -1
        wrong = predictions != taken
        train = wrong | (np.abs(outputs) <= thresholds)
        if train.any():
            update[0] = target
            update[1:] = target * history
            trained_rows = rows[train]
            stepped = weights[trained_rows] + update[None, :] * pad[train]
            np.clip(stepped, weight_min[train], weight_max[train],
                    out=stepped)
            weights[trained_rows] = stepped
        if position >= split and wrong.any():
            pc_int = int(pc)
            for lane in np.nonzero(wrong)[0]:
                appends[lane](pc_int)
        history[1:] = history[:-1]
        history[0] = target
    return mispredicts
