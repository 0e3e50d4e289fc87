"""Batched K-lane predictor replay: one branch stream, many predictors.

An MPKI sweep replays the *same* committed branch stream through N
predictor configurations; this module advances all N lanes over one pass
of the stream, by one rule:

* A batch with fewer lanes than :data:`TAGE_MIN_LANES`, or an empty
  stream, replays whole on :func:`_lockstep` — one scalar pass driving
  each instance's own ``observe``, bit-identical by construction — with
  no kernel gating.
* In a larger batch, each TAGE / TAGE-SC-L / MTAGE geometry group of at
  least :data:`TAGE_MIN_LANES` distinct pristine lanes runs on the
  packed-lane kernel (:mod:`repro.predictors.tage_batch`), duplicate
  configurations replaying once; every other lane shares one lockstep
  pass.

Per-lane mispredicted-PC sequences — and so MPKI, per-PC breakdowns and
payload digests — match a scalar predict/update loop (the reference
``tests/test_batch_replay.py`` keeps).  A kernel lane's evolution stays
in the kernel's packed words, not in the instance: batch callers treat
lane predictors as consumed.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.predictors import tage_batch
from repro.predictors.base import BranchPredictor

#: The cutover: a smaller batch, or a smaller TAGE geometry group, replays
#: on lockstep, where the kernel's fixed per-event work would lose.
TAGE_MIN_LANES = 8


def warm_backend() -> None:
    """Kept for callers that warm the batch backend off-clock: a no-op.

    The packed-lane TAGE kernel builds no lookup tables and has no lazily
    initialized library paths, so nothing is left to pay ahead of the
    first batch.
    """


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
    if len(predictors) < TAGE_MIN_LANES or len(pcs) == 0:
        return _lockstep(predictors, pcs, takens, split)
    results: List[Optional[List[int]]] = [None] * len(predictors)
    tage_lanes: List[int] = []
    fallback: List[int] = []
    for lane, predictor in enumerate(predictors):
        (tage_lanes if tage_batch.supported(predictor)
         else fallback).append(lane)
    alias: dict = {}
    if tage_lanes:
        kernel_results, alias, declined = tage_batch.run_tage_lanes(
            predictors, tage_lanes, list(pcs), list(takens), split,
            TAGE_MIN_LANES)
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
    # per-PC aggregation memoizes by identity
    for lane, representative in alias.items():
        results[lane] = results[representative]
    return results


def _lockstep(predictors: Sequence[BranchPredictor],
              pcs: Sequence[int], takens: Sequence[int],
              split: int) -> List[List[int]]:
    """Scalar replay: one stream pass feeding every lane in lockstep.

    Valid for any predictor in any starting state: it drives the
    instances' own ``observe``.
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
