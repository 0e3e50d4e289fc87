"""Per-branch 3-bit counter predictor for Predictive chain initiation.

§4.1: "We use a simple per-branch 3-bit counter as the prediction
mechanism."  This predictor only steers which dependence chains are
speculatively initiated; the prediction the *core* consumes still comes from
the chains themselves, so even modest accuracy here improves timeliness.
"""

from __future__ import annotations

from typing import Dict

from repro.predictors.base import BranchPredictor


class InitiationPredictor(BranchPredictor):
    """Per-PC 3-bit saturating counter (values 0-7, >= 4 predicts taken)."""

    name = "initiation-3bit"

    def __init__(self):
        self._counters: Dict[int, int] = {}

    def predict(self, pc: int) -> bool:
        return self._counters.get(pc, 4) >= 4

    def update(self, pc: int, taken: bool) -> None:
        value = self._counters.get(pc, 4)
        if taken:
            if value < 7:
                self._counters[pc] = value + 1
        elif value > 0:
            self._counters[pc] = value - 1

    def observe(self, pc: int, taken: bool) -> bool:
        """``predict`` then ``update`` in one call (the DCE's per-instance
        path)."""
        value = self._counters.get(pc, 4)
        if taken:
            if value < 7:
                self._counters[pc] = value + 1
        elif value > 0:
            self._counters[pc] = value - 1
        return value >= 4

    def storage_bits(self) -> int:
        return len(self._counters) * 3
