"""Perceptron branch predictor (Jimenez & Lin, HPCA 2001).

Included as a classic history-based baseline (the paper cites perceptron
predictors [19] among the history-based family that data-dependent
branches defeat).  Each branch hashes to a weight vector; the prediction
is the sign of the dot product with the global history, trained on
mispredictions or low-confidence outputs.

Weight rows are packed signed-``array`` stores and training uses the
precomputed clamp tables from :mod:`repro.predictors.storage` (the weight
delta is always ±1, so a saturating step is a single table index).  The
original list-of-lists spelling lives on as
``ReferencePerceptronPredictor`` (``tests/reference_predictors.py``);
``self.weights`` remains an iterable of per-perceptron rows.
"""

from __future__ import annotations

from array import array
from typing import List

from repro.predictors.base import BranchPredictor
from repro.predictors.storage import signed_clamp_tables, signed_typecode


class PerceptronPredictor(BranchPredictor):
    """Global-history perceptron with the standard threshold training."""

    name = "perceptron"

    def __init__(self, num_perceptrons: int = 512, history_bits: int = 24,
                 weight_bits: int = 8):
        self.num_perceptrons = num_perceptrons
        self.history_bits = history_bits
        self._weight_max = (1 << (weight_bits - 1)) - 1
        self._weight_min = -(1 << (weight_bits - 1))
        #: Jimenez's empirically optimal training threshold.
        self.threshold = int(1.93 * history_bits + 14)
        # weights[i][0] is the bias weight; [1..h] pair with history bits
        typecode = signed_typecode(weight_bits)
        row = array(typecode, [0]) * (history_bits + 1)
        self.weights: List[array] = [array(typecode, row)
                                     for _ in range(num_perceptrons)]
        self._history: List[int] = [1] * history_bits  # +1/-1 encoding
        self._inc, self._dec = signed_clamp_tables(weight_bits)
        self._last_output = 0
        self._last_index = 0

    def _index(self, pc: int) -> int:
        return pc % self.num_perceptrons

    def predict(self, pc: int) -> bool:
        index = pc % self.num_perceptrons
        weights = self.weights[index]
        output = weights[0]
        position = 1
        for bit in self._history:
            output += weights[position] if bit > 0 else -weights[position]
            position += 1
        self._last_output = output
        self._last_index = index
        return output >= 0

    def update(self, pc: int, taken: bool) -> None:
        index = pc % self.num_perceptrons
        if index != self._last_index:
            self.predict(pc)
        output = self._last_output
        predicted = output >= 0
        target = 1 if taken else -1
        if predicted != taken or abs(output) <= self.threshold:
            weights = self.weights[index]
            # weight deltas are target * history_bit = ±1: a saturating
            # step through the precomputed clamp tables, incrementing when
            # the history bit agrees with the target sign
            low = self._weight_min
            inc, dec = self._inc, self._dec
            weights[0] = (inc if taken else dec)[weights[0] - low]
            position = 1
            for bit in self._history:
                if (bit > 0) == taken:
                    weights[position] = inc[weights[position] - low]
                else:
                    weights[position] = dec[weights[position] - low]
                position += 1
        self._history.insert(0, target)
        self._history.pop()

    def _clip(self, value: int) -> int:
        return max(self._weight_min, min(self._weight_max, value))

    def storage_bits(self) -> int:
        return self.num_perceptrons * (self.history_bits + 1) * 8
