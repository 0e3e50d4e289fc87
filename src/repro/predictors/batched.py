"""Batched K-lane predictor replay: one branch stream, many predictors.

An MPKI sweep replays the *same* committed branch stream through N
predictor configurations.  Run scalar, that costs N full Python loops of
``observe(pc, taken)``; this module advances all N lanes over one pass
of the stream, which is where the sweep fast path's 10x comes from.

Pristine lanes of the supported families run per-family vectorized numpy
kernels over the whole stream:

* *2-bit saturating-counter tables* (bimodal, gshare): the full index
  stream of a lane is computable up front (bimodal indexes on the PC
  alone; gshare's global history is a pure function of the outcome
  column, so every lane's history register materializes as one
  shifted-OR pass).  Each table entry then evolves independently, and
  the per-entry counter walk is solved with a segmented prefix
  *composition* scan: events sort by table index (stable, so stream
  order survives inside a segment), each event becomes its transition
  map over the counter's four states, and a Hillis–Steele pass composes
  maps within segments in ``log2(longest segment)`` steps.  The state
  *before* each event — the prediction — is the previous event's
  composed map applied to the pristine fill value.
* *TAGE / TAGE-SC-L / MTAGE*: lanes grouped by geometry signature
  share one folded-history/index/tag materialization and advance
  lane-stacked counter matrices through LUT-compiled automata — see
  :mod:`repro.predictors.tage_batch`.  The kernel engages once a
  geometry group reaches :data:`TAGE_MIN_LANES`; smaller groups stay on
  lockstep, where the scalar loop is faster.

The vectorized kernels assume a *pristine* (freshly constructed)
predictor — the scan starts every table entry from the fill value — so
each lane is checked and falls back to :func:`_lockstep` when it has
trained state, is a subclass, or uses an unsupported geometry.  Remaining
families (perceptrons, bimodal counters wider than 2 bits, local-history,
loop-only hybrids, custom subclasses) always take that path, as does an
empty stream.  Lockstep is a scalar loop sharing one pass of the stream
(and one ``bool()`` conversion of the outcome column) across lanes,
driving each instance's own ``observe``; it is also the differential
reference the kernels are pinned against in ``tests/test_batch_replay.py``.

Both paths reproduce ``predict → update`` per branch bit-exactly, so
per-lane mispredicted-PC sequences — and therefore MPKI, per-PC
breakdowns, and payload digests — match a scalar predict/update loop
(the reference ``tests/test_batch_replay.py`` keeps) for every lane.
After a *vectorized* lane runs, the predictor instance's own table state
is NOT advanced (the kernel keeps the evolution in its own arrays);
batch callers treat lane predictors as consumed.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence

import numpy as np

from repro.predictors import tage_batch
from repro.predictors.base import BranchPredictor
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gshare import GSharePredictor

#: TAGE-lane cutover: below this many same-geometry lanes the columnar
#: TAGE kernel's per-event numpy overhead loses to lockstep.
TAGE_MIN_LANES = 8


def warm_backend() -> None:
    """Pay the batch kernels' one-time costs now.

    Runs a miniature batch so the scan LUT is built and numpy's
    lazily-initialized kernel paths (argsort, take, cumsum, ...) are
    primed.  Perf harnesses call this off-clock so a timed first batch
    measures kernel throughput, not interpreter warmup.
    """
    pcs = [(i * 97) & 0xFFFF for i in range(256)]
    takens = [bool((i * 11) & 4) for i in range(256)]
    replay_lanes([BimodalPredictor(size_log2=6),
                  GSharePredictor(size_log2=6, history_bits=4)],
                 pcs, takens, 16)


def replay_lanes(predictors: Sequence[BranchPredictor],
                 pcs: Sequence[int], takens: Sequence[int],
                 split: int) -> List[List[int]]:
    """Advance every lane over one branch stream; return its mispredicts.

    ``pcs``/``takens`` are the stream's columns (any int sequences; the
    columnar :class:`~repro.sim.branch_events.BranchColumns` arrays in
    practice) and ``split`` is the warmup boundary: events before it
    train only, events at or after it are measured.  Lane ``k``'s return
    value is the list of measured PCs predictor ``k`` mispredicted, in
    stream order — exactly the list a scalar predict/update loop
    accumulates.
    """
    if len(pcs) == 0:
        return _lockstep(predictors, pcs, takens, split)
    if len(predictors) == 1 \
            and type(predictors[0]) not in (BimodalPredictor,
                                            GSharePredictor) \
            and TAGE_MIN_LANES > 1:
        # a lone lane no counter scan takes would reach lockstep through
        # _numpy_lanes anyway (a TAGE lane alone is below the kernel's
        # cutover, and other families have no kernel): skip the numpy
        # set-up
        return _lockstep(predictors, pcs, takens, split)
    return _numpy_lanes(predictors, pcs, takens, split)


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

def _pristine_bimodal(predictor: BimodalPredictor) -> bool:
    table = predictor.table
    return (predictor.counter_bits == 2
            and predictor.size_log2 <= 30  # int32 index domain
            and table.count(1) == len(table))


def _pristine_gshare(predictor: GSharePredictor) -> bool:
    table = predictor.table
    return (predictor.history == 0
            and predictor.size_log2 <= 30  # int32 index domain
            and predictor.history_bits <= 30
            and table.count(1) == len(table))


def _numpy_lanes(predictors, pcs, takens, split):
    results: List[Optional[List[int]]] = [None] * len(predictors)
    pcs_v = np.asarray(pcs).astype(np.int64)
    taken_v = np.frombuffer(bytes(takens), dtype=np.uint8) != 0
    stacked: List[int] = []
    tage_lanes: List[int] = []
    fallback: List[int] = []
    for lane, predictor in enumerate(predictors):
        # exact-type checks: a subclass may override predict/update, and
        # bit-identity to the instance's own behaviour is the contract
        if (type(predictor) is BimodalPredictor
                and _pristine_bimodal(predictor)) \
                or (type(predictor) is GSharePredictor
                    and _pristine_gshare(predictor)):
            stacked.append(lane)
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
        history_v = _history_vector(taken_v, max(gshare_bits)) \
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
        preds = _counter_scan_stacked(rows_u, taken_v)
        shared: dict = {}
        for row, lane in enumerate(stacked):
            unique_row = int(inverse[row])
            if unique_row not in shared:
                shared[unique_row] = _mispredicted(
                    pcs_v, taken_v, preds[unique_row], split)
            # equivalent lanes share one list *object* so downstream
            # aggregation (per-PC Counters) can memoize by identity
            results[lane] = shared[unique_row]
    alias: dict = {}
    if tage_lanes:
        kernel_results, alias, declined = tage_batch.run_tage_lanes(
            predictors, tage_lanes, pcs_v, taken_v, split, TAGE_MIN_LANES)
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


def _history_vector(taken_v, bits: int):
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


@lru_cache(maxsize=None)
def _compose4_lut():
    """(256*256,) byte-code composition table: LUT[l*256+e] = l after e."""
    codes = np.arange(256, dtype=np.uint16)
    table = np.empty((256, 4), dtype=np.uint8)
    for state in range(4):
        table[:, state] = (codes >> (2 * state)) & 3
    composed = table[np.arange(256)[:, None, None],
                     table[None, :, :]]  # [l, e, s] = l(e(s))
    return (composed[..., 0]
            | composed[..., 1] << 2
            | composed[..., 2] << 4
            | composed[..., 3] << 6).astype(np.uint8).ravel()


def _counter_scan_stacked(index_m, taken_v):
    """Predictions of K stacked weakly-not-taken 2-bit lanes in one scan.

    Each table entry's counter evolves independently through its own
    subsequence of events, so: sort each row's events by index (stable —
    stream order survives within a segment), express each event as its
    transition map (one byte, composed through a 64K lookup table),
    compose maps within each segment with a Hillis–Steele scan, and read
    the state *before* each event as the predecessor's composed map
    applied to the pristine fill.  All K rows' sorted event streams
    concatenate into a single scan domain — per-row segment starts keep
    segments from spanning lanes, and numpy call overhead amortizes
    across the whole stack.  Counters start at 1 (weakly not-taken) and
    predict taken at >= 2.  Returns the boolean prediction per event in
    original stream order, one row per lane.
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
    lut = _compose4_lut()
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
