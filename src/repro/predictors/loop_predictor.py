"""Loop predictor (the "L" of TAGE-SC-L).

Detects branches with constant trip counts and predicts the loop exit — the
one case a counter/history predictor systematically misses.  Entries learn a
trip count and gain confidence each time the same count repeats; once
confident, the predictor supplies "taken until iteration == trip count".

Entry state is struct-of-arrays: six parallel packed stores (tag,
past/current iteration, confidence, direction, age) indexed by the same
set index, replacing the per-entry ``_LoopEntry`` objects preserved in
``ReferenceLoopPredictor`` (``tests/reference_predictors.py``).
"""

from __future__ import annotations

from array import array

from repro.predictors.storage import unsigned_store


class LoopPredictor:
    """Set of loop entries indexed by PC.

    ``predict`` returns ``(valid, direction)``; callers use the direction
    only when ``valid``.  ``update`` trains with the resolved outcome.
    """

    CONFIDENCE_MAX = 3
    AGE_MAX = 7

    def __init__(self, size_log2: int = 6, tag_bits: int = 14):
        self._mask = (1 << size_log2) - 1
        self._tag_mask = (1 << tag_bits) - 1
        self.size_log2 = size_log2
        self.tag_bits = tag_bits
        size = 1 << size_log2
        self._size = size
        # parallel packed entry fields ('l' for tags/iters: tags start at
        # the never-matching -1 sentinel, trip counts are unbounded ints)
        self._tags = array("l", [-1]) * size
        self._past_iter = array("l", [0]) * size
        self._current_iter = array("l", [0]) * size
        self._confidence = unsigned_store(size)
        self._direction = unsigned_store(size, 1)  # taken while iterating
        self._age = unsigned_store(size)

    def predict(self, pc: int):
        """Return ``(valid, direction)`` for the branch at ``pc``."""
        index = pc & self._mask
        tag = (pc >> self.size_log2) & self._tag_mask
        if self._tags[index] != tag \
                or self._confidence[index] < self.CONFIDENCE_MAX:
            return False, False
        direction = bool(self._direction[index])
        if self._current_iter[index] == self._past_iter[index]:
            return True, not direction  # predict the exit
        return True, direction

    def update(self, pc: int, taken: bool) -> None:
        index = pc & self._mask
        tag = (pc >> self.size_log2) & self._tag_mask
        if self._tags[index] != tag:
            # allocate if the current occupant has aged out
            age = self._age[index]
            if age == 0:
                self._tags[index] = tag
                self._past_iter[index] = 0
                self._current_iter[index] = 0
                self._confidence[index] = 0
                self._direction[index] = 1 if taken else 0
                self._age[index] = self.AGE_MAX
            else:
                self._age[index] = age - 1
            return

        if taken == bool(self._direction[index]):
            current = self._current_iter[index] + 1
            past = self._past_iter[index]
            if past and current > past:
                # ran past the learned trip count: not a fixed-trip loop
                self._confidence[index] = 0
                self._past_iter[index] = 0
                self._current_iter[index] = 0
            else:
                self._current_iter[index] = current
        else:
            # loop exit observed
            current = self._current_iter[index]
            past = self._past_iter[index]
            if current == past and past > 0:
                confidence = self._confidence[index]
                if confidence < self.CONFIDENCE_MAX:
                    self._confidence[index] = confidence + 1
                age = self._age[index]
                if age < self.AGE_MAX:
                    self._age[index] = age + 1
            else:
                self._past_iter[index] = current
                self._confidence[index] = 0
            self._current_iter[index] = 0

    def export_state(self) -> dict:
        """Mutable entry fields, for lane packing / pristine checks."""
        return {
            "tags": self._tags,
            "past_iter": self._past_iter,
            "current_iter": self._current_iter,
            "confidence": self._confidence,
            "direction": self._direction,
            "age": self._age,
        }

    def storage_bits(self) -> int:
        # tag + past/current iteration (14b each) + confidence + direction + age
        per_entry = self.tag_bits + 14 + 14 + 2 + 1 + 3
        return self._size * per_entry
