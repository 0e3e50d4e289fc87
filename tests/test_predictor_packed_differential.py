"""Differential suite: packed predictors vs their reference twins.

Every predictor family runs in lockstep with the preserved reference
implementation (``tests/reference_predictors.py``) over randomized branch
streams that mix biased, random, fixed-trip-loop, and history-correlated
branches.  Bit-identity is required at two levels:

* every prediction, on every branch, and
* the complete observable predictor state at the end of the stream
  (counter/tag/useful tables, folded-history registers, LFSR, thresholds).

Small configurations make allocation pressure, useful-bit decay, graceful
resets, and loop-entry aging dense enough to hit within a few thousand
branches.  The suite runs under two fixed seeds in CI (and a second
``PYTHONHASHSEED``) to guard against iteration-order-dependent state.
"""

import random

import pytest

from repro.predictors import (
    BimodalPredictor,
    GSharePredictor,
    LoopPredictor,
    PerceptronPredictor,
    StatisticalCorrector,
    TageConfig,
    TagePredictor,
    TageSCL,
)
from repro.predictors.tage_scl import tage_scl_64kb
from tests.reference_predictors import (
    ReferenceBimodalPredictor,
    ReferenceGSharePredictor,
    ReferenceLoopPredictor,
    ReferencePerceptronPredictor,
    ReferenceStatisticalCorrector,
    ReferenceTagePredictor,
    ReferenceTageSCL,
)

SEEDS = [11, 4242]


def branch_stream(seed, length, num_pcs=24):
    """Mixed-behavior branch stream: biased / random / loops / correlated."""
    rng = random.Random(seed)
    pcs = [rng.randrange(1 << 20) for _ in range(num_pcs)]
    loop_iter = {}
    events = []
    for i in range(length):
        pc = rng.choice(pcs)
        behavior = pc % 4
        if behavior == 0:
            taken = rng.random() < 0.9
        elif behavior == 1:
            taken = rng.random() < 0.5
        elif behavior == 2:
            # fixed trip count loop: taken (trip-1) times, then exit
            trip = 3 + (pc >> 4) % 5
            count = loop_iter.get(pc, 0) + 1
            if count >= trip:
                taken = False
                count = 0
            else:
                taken = True
            loop_iter[pc] = count
        else:
            taken = (i & ((pc % 7) + 1)) != 0
        events.append((pc, taken))
    return events


def small_tage_config(**overrides):
    kwargs = dict(num_tables=5, table_size_log2=6, tag_bits=7,
                  min_history=4, max_history=64, base_size_log2=7,
                  useful_reset_period=512)
    kwargs.update(overrides)
    return TageConfig(**kwargs)


def drive_lockstep(packed, reference, events, update_only_every=0):
    """Run both predictors over the stream asserting equal predictions.

    ``update_only_every`` > 0 skips predict() before every n-th update to
    exercise the update-without-context recovery path.
    """
    for i, (pc, taken) in enumerate(events):
        if update_only_every and i % update_only_every == 0:
            packed.update(pc, taken)
            reference.update(pc, taken)
            continue
        got = packed.predict(pc)
        want = reference.predict(pc)
        assert got == want, f"prediction diverged at branch {i} pc={pc:#x}"
        packed.update(pc, taken)
        reference.update(pc, taken)


# -- state extraction --------------------------------------------------------

def tage_state(p):
    if isinstance(p, ReferenceTagePredictor):
        return {
            "ctr": [list(t.ctr) for t in p.tables],
            "tag": [list(t.tag) for t in p.tables],
            "useful": [list(t.useful) for t in p.tables],
            "f_index": [t.f_index.comp for t in p.tables],
            "f_tag0": [t.f_tag0.comp for t in p.tables],
            "f_tag1": [t.f_tag1.comp for t in p.tables],
            "base": list(p._base),
            "use_alt": p._use_alt_on_na,
            "tick": p._tick,
            "lfsr": p._lfsr.state,
        }
    return {
        "ctr": [list(t) for t in p._ctr_tables],
        "tag": [list(t) for t in p._tag_tables],
        "useful": [list(t) for t in p._useful_tables],
        "f_index": list(p._f_index),
        "f_tag0": list(p._f_tag0),
        "f_tag1": list(p._f_tag1),
        "base": list(p._base),
        "use_alt": p._use_alt_on_na,
        "tick": p._tick,
        "lfsr": p._lfsr.state,
    }


def loop_state(p):
    if isinstance(p, ReferenceLoopPredictor):
        return {
            "tag": [e.tag for e in p.entries],
            "past": [e.past_iter for e in p.entries],
            "cur": [e.current_iter for e in p.entries],
            "conf": [e.confidence for e in p.entries],
            "dir": [bool(e.direction) for e in p.entries],
            "age": [e.age for e in p.entries],
        }
    return {
        "tag": list(p._tags),
        "past": list(p._past_iter),
        "cur": list(p._current_iter),
        "conf": list(p._confidence),
        "dir": [bool(d) for d in p._direction],
        "age": list(p._age),
    }


def sc_state(c):
    state = {
        "tables": [list(t) for t in c.tables],
        "bias": list(c.bias),
        "threshold": c.threshold,
        "tc": c._threshold_counter,
    }
    if isinstance(c, ReferenceStatisticalCorrector):
        state["folds"] = [f.comp for f in c._folds]
    else:
        state["folds"] = list(c._fold_comps)
    return state


# -- simple families ---------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_bimodal_differential(seed):
    packed = BimodalPredictor(size_log2=8)
    reference = ReferenceBimodalPredictor(size_log2=8)
    drive_lockstep(packed, reference, branch_stream(seed, 4000))
    assert list(packed.table) == reference.table


@pytest.mark.parametrize("seed", SEEDS)
def test_gshare_differential(seed):
    packed = GSharePredictor(size_log2=8, history_bits=8)
    reference = ReferenceGSharePredictor(size_log2=8, history_bits=8)
    drive_lockstep(packed, reference, branch_stream(seed, 4000))
    assert list(packed.table) == reference.table
    assert packed.history == reference.history


@pytest.mark.parametrize("seed", SEEDS)
def test_perceptron_differential(seed):
    packed = PerceptronPredictor(num_perceptrons=32, history_bits=12,
                                 weight_bits=6)
    reference = ReferencePerceptronPredictor(num_perceptrons=32,
                                             history_bits=12, weight_bits=6)
    drive_lockstep(packed, reference, branch_stream(seed, 4000),
                   update_only_every=17)
    assert [list(row) for row in packed.weights] == reference.weights
    assert packed._history == reference._history


# -- loop predictor: allocation, aging, trip-count relearning ----------------

@pytest.mark.parametrize("seed", SEEDS)
def test_loop_differential(seed):
    # single-digit set count forces tag conflicts → allocation + aging
    packed = LoopPredictor(size_log2=2, tag_bits=6)
    reference = ReferenceLoopPredictor(size_log2=2, tag_bits=6)
    rng = random.Random(seed)
    # several loops with changing trip counts sharing 4 sets
    pcs = [rng.randrange(1 << 12) for _ in range(10)]
    iters = {}
    for i in range(6000):
        pc = rng.choice(pcs)
        trip = 2 + (pc % 4) + (3 if i > 3000 and pc % 2 else 0)
        count = iters.get(pc, 0) + 1
        taken = count < trip
        iters[pc] = 0 if count >= trip else count
        assert packed.predict(pc) == reference.predict(pc), f"branch {i}"
        packed.update(pc, taken)
        reference.update(pc, taken)
    assert loop_state(packed) == loop_state(reference)


# -- statistical corrector ---------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_statistical_corrector_differential(seed):
    packed = StatisticalCorrector(table_size_log2=6)
    reference = ReferenceStatisticalCorrector(table_size_log2=6)
    rng = random.Random(seed)
    for i, (pc, taken) in enumerate(branch_stream(seed, 5000)):
        tage_pred = rng.random() < 0.7
        got = packed.compute_sum(pc, tage_pred)
        want = reference.compute_sum(pc, tage_pred)
        assert got == want, f"sum diverged at branch {i}"
        assert packed.should_override(got, tage_pred) == \
            reference.should_override(want, tage_pred)
        packed.update(pc, taken, tage_pred, got)
        reference.update(pc, taken, tage_pred, want)
    assert sc_state(packed) == sc_state(reference)


@pytest.mark.parametrize("seed", SEEDS)
def test_statistical_corrector_update_without_sum(seed):
    # update() without a paired compute_sum must recompute indices itself
    packed = StatisticalCorrector(table_size_log2=6)
    reference = ReferenceStatisticalCorrector(table_size_log2=6)
    rng = random.Random(seed)
    for pc, taken in branch_stream(seed, 2000):
        tage_pred = rng.random() < 0.5
        if rng.random() < 0.5:
            total = packed.compute_sum(pc, tage_pred)
            assert total == reference.compute_sum(pc, tage_pred)
        else:
            # a total the caller computed elsewhere; indices not cached
            total = rng.randrange(-40, 40)
            reference.compute_sum(pc, tage_pred)  # reference has no cache
        packed.update(pc, taken, tage_pred, total)
        reference.update(pc, taken, tage_pred, total)
    assert sc_state(packed) == sc_state(reference)


# -- TAGE: allocation + useful decay + graceful reset ------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_tage_differential(seed):
    packed = TagePredictor(small_tage_config())
    reference = ReferenceTagePredictor(small_tage_config())
    drive_lockstep(packed, reference, branch_stream(seed, 6000))
    assert tage_state(packed) == tage_state(reference)


@pytest.mark.parametrize("seed", SEEDS)
def test_tage_useful_reset_edges(seed):
    # reset period much smaller than the stream: several graceful resets
    # of both phases (high-bit clear and low-bit clear) occur mid-stream
    config = small_tage_config(useful_reset_period=128)
    packed = TagePredictor(config)
    reference = ReferenceTagePredictor(small_tage_config(
        useful_reset_period=128))
    events = branch_stream(seed + 7, 3000)
    drive_lockstep(packed, reference, events, update_only_every=13)
    assert packed._tick == reference._tick
    assert packed._tick >= 128 * 4  # at least both reset phases, twice
    assert tage_state(packed) == tage_state(reference)


@pytest.mark.parametrize("seed", SEEDS)
def test_tage_single_table_and_wide_counters(seed):
    config = TageConfig(num_tables=2, table_size_log2=5, tag_bits=5,
                        counter_bits=5, useful_bits=1, min_history=3,
                        max_history=9, base_size_log2=5,
                        useful_reset_period=64)
    packed = TagePredictor(config)
    reference = ReferenceTagePredictor(TageConfig(
        num_tables=2, table_size_log2=5, tag_bits=5, counter_bits=5,
        useful_bits=1, min_history=3, max_history=9, base_size_log2=5,
        useful_reset_period=64))
    drive_lockstep(packed, reference, branch_stream(seed, 3000))
    assert tage_state(packed) == tage_state(reference)


# -- composed TAGE-SC-L ------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_tage_scl_differential(seed):
    packed = TageSCL(tage_config=small_tage_config(),
                     loop=LoopPredictor(size_log2=3, tag_bits=8),
                     corrector=StatisticalCorrector(table_size_log2=6))
    reference = ReferenceTageSCL(
        tage_config=small_tage_config(),
        loop=ReferenceLoopPredictor(size_log2=3, tag_bits=8),
        corrector=ReferenceStatisticalCorrector(table_size_log2=6))
    drive_lockstep(packed, reference, branch_stream(seed, 6000),
                   update_only_every=29)
    assert tage_state(packed.tage) == tage_state(reference.tage)
    assert loop_state(packed.loop) == loop_state(reference.loop)
    assert sc_state(packed.corrector) == sc_state(reference.corrector)


def test_observe_matches_predict_update():
    left = tage_scl_64kb()
    right = tage_scl_64kb()
    for pc, taken in branch_stream(3, 1500):
        fused = left.observe(pc, taken)
        split = right.predict(pc)
        right.update(pc, taken)
        assert fused == split
    assert tage_state(left.tage) == tage_state(right.tage)


def test_storage_accounting_matches_reference():
    config = small_tage_config()
    assert TagePredictor(config).storage_bits() == \
        ReferenceTagePredictor(small_tage_config()).storage_bits()
    assert LoopPredictor(size_log2=4).storage_bits() == \
        ReferenceLoopPredictor(size_log2=4).storage_bits()
    assert StatisticalCorrector().storage_bits() == \
        ReferenceStatisticalCorrector().storage_bits()
