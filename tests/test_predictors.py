"""Tests for the branch predictor suite."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predictors import (
    AlwaysTakenPredictor,
    BimodalPredictor,
    GSharePredictor,
    InitiationPredictor,
    LoopPredictor,
    StatisticalCorrector,
    TageConfig,
    TagePredictor,
    TageSCL,
    mtage_sc,
    tage_scl_64kb,
    tage_scl_80kb,
)
from repro.predictors.counters import (
    FoldedHistory,
    HistoryBuffer,
    Lfsr,
    update_signed,
)
from repro.predictors.tage import geometric_history_lengths


def accuracy(predictor, stream):
    """Run (pc, taken) pairs through a predictor; return hit rate."""
    correct = 0
    for pc, taken in stream:
        if predictor.predict(pc) == taken:
            correct += 1
        predictor.update(pc, taken)
    return correct / len(stream)


def loop_stream(pc, trip, repeats):
    """Branch at ``pc``: taken ``trip`` times, then one not-taken, repeated."""
    out = []
    for _ in range(repeats):
        out.extend([(pc, True)] * trip)
        out.append((pc, False))
    return out


class TestCounters:
    def test_update_signed_saturates(self):
        value = 0
        for _ in range(20):
            value = update_signed(value, True, 3)
        assert value == 3
        for _ in range(20):
            value = update_signed(value, False, 3)
        assert value == -4

    def test_lfsr_deterministic_and_nonzero(self):
        a, b = Lfsr(seed=123), Lfsr(seed=123)
        seq_a = [a.next() for _ in range(100)]
        seq_b = [b.next() for _ in range(100)]
        assert seq_a == seq_b
        assert all(state != 0 for state in seq_a)

    def test_lfsr_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            Lfsr(seed=0)

    def test_history_buffer_ages(self):
        buffer = HistoryBuffer(8)
        for bit in [1, 0, 1, 1]:
            buffer.push(bool(bit))
        assert buffer.bit(0) == 1  # most recent
        assert buffer.bit(1) == 1
        assert buffer.bit(2) == 0
        assert buffer.bit(3) == 1

    @given(st.lists(st.booleans(), min_size=1, max_size=200),
           st.integers(min_value=5, max_value=40),
           st.integers(min_value=3, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_folded_history_matches_direct_fold(self, outcomes, orig_len,
                                                comp_len):
        """The O(1) folded register must equal folding the window directly."""
        fold = FoldedHistory(orig_len, comp_len)
        buffer = HistoryBuffer(orig_len + 2)
        history = []  # history[0] = newest
        for taken in outcomes:
            old_bit = buffer.bit(orig_len - 1)
            buffer.push(taken)
            fold.update(1 if taken else 0, old_bit)
            history.insert(0, 1 if taken else 0)
            history = history[:orig_len]
            # direct fold: window as an int with newest bit = LSB
            window = 0
            for age, bit in enumerate(history):
                window |= bit << age
            direct = 0
            while window:
                direct ^= window & ((1 << comp_len) - 1)
                window >>= comp_len
            assert fold.comp == direct


class TestBaselines:
    def test_always_taken(self):
        predictor = AlwaysTakenPredictor()
        assert predictor.predict(0x100) is True
        predictor.update(0x100, False)
        assert predictor.predict(0x100) is True

    def test_bimodal_learns_bias(self):
        stream = [(0x40, True)] * 100
        assert accuracy(BimodalPredictor(), stream) > 0.95

    def test_bimodal_hysteresis(self):
        predictor = BimodalPredictor()
        for _ in range(10):
            predictor.update(0x40, True)
        predictor.update(0x40, False)  # single anomaly
        assert predictor.predict(0x40) is True

    def test_gshare_learns_alternation(self):
        stream = [(0x40, bool(i % 2)) for i in range(400)]
        assert accuracy(GSharePredictor(), stream) > 0.9

    def test_gshare_beats_bimodal_on_pattern(self):
        stream = []
        pattern = [True, True, False, True, False, False]
        for i in range(600):
            stream.append((0x40, pattern[i % len(pattern)]))
        assert accuracy(GSharePredictor(), list(stream)) > \
            accuracy(BimodalPredictor(), list(stream))


class TestTage:
    def test_geometric_lengths_monotonic(self):
        lengths = geometric_history_lengths(12, 4, 640)
        assert lengths[0] == 4 and lengths[-1] == 640
        assert all(b > a for a, b in zip(lengths, lengths[1:]))

    def test_learns_long_pattern(self):
        """A period-24 pattern needs > bimodal/gshare history reach."""
        rng = np.random.default_rng(7)
        pattern = list(rng.integers(0, 2, 24).astype(bool))
        stream = [(0x99, pattern[i % 24]) for i in range(4000)]
        tage_acc = accuracy(TagePredictor(), list(stream))
        assert tage_acc > 0.95

    def test_correlated_branches(self):
        """Branch B == outcome of branch A two branches earlier."""
        rng = np.random.default_rng(3)
        stream = []
        for _ in range(3000):
            a = bool(rng.integers(0, 2))
            stream.append((0x10, a))
            stream.append((0x20, not a))
        predictor = TagePredictor()
        correct_b = total_b = 0
        for pc, taken in stream:
            pred = predictor.predict(pc)
            if pc == 0x20:
                total_b += 1
                correct_b += pred == taken
            predictor.update(pc, taken)
        assert correct_b / total_b > 0.9

    def test_cannot_predict_random_data_dependent(self):
        """The paper's premise: history predictors fail on random outcomes."""
        rng = np.random.default_rng(11)
        outcomes = rng.integers(0, 2, 4000).astype(bool)
        stream = [(0x77, bool(t)) for t in outcomes]
        assert accuracy(TagePredictor(), stream) < 0.62

    def test_storage_accounting(self):
        config = TageConfig(num_tables=4, table_size_log2=8, tag_bits=9,
                            base_size_log2=10)
        predictor = TagePredictor(config)
        expected = 4 * 256 * (3 + 9 + 2) + 1024 * 2
        assert predictor.storage_bits() == expected

    def test_update_without_predict_recovers(self):
        predictor = TagePredictor()
        predictor.update(0x5, True)  # must not raise
        assert isinstance(predictor.predict(0x5), bool)


class TestLoopPredictor:
    def test_learns_constant_trip_count(self):
        predictor = LoopPredictor()
        stream = loop_stream(0x30, trip=7, repeats=40)
        # train
        for pc, taken in stream:
            predictor.update(pc, taken)
        # verify on one more loop: all 7 taken + exit predicted
        hits = 0
        for pc, taken in loop_stream(0x30, trip=7, repeats=1):
            valid, pred = predictor.predict(pc)
            assert valid
            hits += pred == taken
            predictor.update(pc, taken)
        assert hits == 8

    def test_not_confident_on_varying_trips(self):
        predictor = LoopPredictor()
        for trip in [3, 5, 4, 6, 3, 7]:
            for pc, taken in loop_stream(0x30, trip=trip, repeats=1):
                predictor.update(pc, taken)
        valid, _ = predictor.predict(0x30)
        assert not valid

    def test_replacement_requires_aging(self):
        predictor = LoopPredictor(size_log2=0)  # single entry
        for pc, taken in loop_stream(0x30, trip=4, repeats=20):
            predictor.update(pc, taken)
        valid, _ = predictor.predict(0x30)
        assert valid
        # a conflicting pc must age the entry out before taking it
        predictor.update(0x31 << 1, True)
        valid, _ = predictor.predict(0x30)
        assert valid  # still resident after one conflict


class TestStatisticalCorrector:
    def test_flips_biased_branch_tage_misses(self):
        corrector = StatisticalCorrector()
        pc = 0x44
        # train: branch is ~always taken but "TAGE" keeps saying not-taken
        for _ in range(200):
            total = corrector.compute_sum(pc, False)
            corrector.update(pc, True, False, total)
        total = corrector.compute_sum(pc, False)
        assert corrector.should_override(total, False)
        assert total >= 0

    def test_threshold_adapts(self):
        corrector = StatisticalCorrector()
        start = corrector.threshold
        pc = 0x50
        # feed contradictory outcomes so near-threshold flips are wrong
        for i in range(400):
            total = corrector.compute_sum(pc, False)
            corrector.update(pc, bool(i % 2), False, total)
        assert corrector.threshold != start or corrector.threshold >= 4


class TestComposedPredictors:
    def test_64kb_storage_budget(self):
        predictor = tage_scl_64kb()
        assert 40 <= predictor.storage_kb() <= 70

    def test_80kb_bigger_than_64kb(self):
        assert tage_scl_80kb().storage_bits() > tage_scl_64kb().storage_bits()

    def test_mtage_dwarfs_both(self):
        assert mtage_sc().storage_bits() > 10 * tage_scl_80kb().storage_bits()

    def test_scl_learns_loop_exits(self):
        predictor = tage_scl_64kb()
        stream = loop_stream(0x60, trip=9, repeats=60)
        for pc, taken in stream:
            predictor.predict(pc)
            predictor.update(pc, taken)
        hits = 0
        for pc, taken in loop_stream(0x60, trip=9, repeats=3):
            hits += predictor.predict(pc) == taken
            predictor.update(pc, taken)
        assert hits / 30 > 0.92

    def test_scl_on_random_is_near_chance(self):
        rng = np.random.default_rng(5)
        stream = [(0x88, bool(t)) for t in rng.integers(0, 2, 3000)]
        assert accuracy(tage_scl_64kb(), stream) < 0.62

    def test_deterministic_across_instances(self):
        rng = np.random.default_rng(9)
        stream = [(int(pc), bool(t)) for pc, t in
                  zip(rng.integers(0, 512, 2000), rng.integers(0, 2, 2000))]
        assert accuracy(tage_scl_64kb(), list(stream)) == \
            accuracy(tage_scl_64kb(), list(stream))


class TestInitiationPredictor:
    def test_tracks_bias_quickly(self):
        predictor = InitiationPredictor()
        for _ in range(4):
            predictor.update(0x10, False)
        assert predictor.predict(0x10) is False

    def test_default_predicts_taken(self):
        assert InitiationPredictor().predict(0x123) is True

    def test_saturation_bounds(self):
        predictor = InitiationPredictor()
        for _ in range(100):
            predictor.update(0x10, True)
        assert predictor._counters[0x10] == 7
        for _ in range(100):
            predictor.update(0x10, False)
        assert predictor._counters[0x10] == 0

    def test_observe_is_predict_then_update(self):
        fused, split = InitiationPredictor(), InitiationPredictor()
        outcomes = [(i * 7) % 5 < 2 for i in range(200)]
        for index, taken in enumerate(outcomes):
            pc = 0x10 + index % 3
            expected = split.predict(pc)
            split.update(pc, taken)
            assert fused.observe(pc, taken) is expected
        assert fused._counters == split._counters
