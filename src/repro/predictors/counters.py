"""Saturating counters and small deterministic PRNG utilities.

These are the shared primitives of every table-based predictor; Branch
Runahead draws its random extraction trigger (§4.3) from :class:`Lfsr`.
"""

from __future__ import annotations


def update_signed(value: int, taken: bool, bits: int) -> int:
    """Update a signed saturating counter of width ``bits`` toward ``taken``.

    Signed counters span ``[-2**(bits-1), 2**(bits-1) - 1]``; a non-negative
    value means predict taken.
    """
    low = -(1 << (bits - 1))
    high = (1 << (bits - 1)) - 1
    if taken:
        return value + 1 if value < high else high
    return value - 1 if value > low else low


class Lfsr:
    """16-bit Fibonacci LFSR: deterministic pseudo-randomness for allocation.

    Hardware predictors use an LFSR to pick which tagged table receives a new
    entry on a misprediction; using one here (rather than ``random``) keeps
    every simulation bit-reproducible.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int = 0xACE1):
        if seed == 0:
            raise ValueError("LFSR seed must be non-zero")
        self.state = seed & 0xFFFF

    def next(self) -> int:
        """Advance and return the new 16-bit state."""
        lsb = self.state & 1
        self.state >>= 1
        if lsb:
            self.state ^= 0xB400
        return self.state

    def bits(self, count: int) -> int:
        """Return ``count`` pseudo-random bits."""
        return self.next() & ((1 << count) - 1)


class FoldedHistory:
    """Incrementally folded branch history (CBP-style).

    Folds the most recent ``original_length`` history bits into a
    ``compressed_length``-bit register in O(1) per branch, given the newest
    bit being shifted in and the oldest bit being shifted out.
    """

    __slots__ = ("comp", "original_length", "compressed_length", "_out_shift",
                 "_mask")

    def __init__(self, original_length: int, compressed_length: int):
        self.comp = 0
        self.original_length = original_length
        self.compressed_length = compressed_length
        self._out_shift = original_length % compressed_length
        self._mask = (1 << compressed_length) - 1

    def update(self, new_bit: int, old_bit: int) -> None:
        comp = (self.comp << 1) | new_bit
        comp ^= old_bit << self._out_shift
        comp ^= comp >> self.compressed_length
        self.comp = comp & self._mask


class HistoryBuffer:
    """Circular buffer of recent branch outcomes.

    Provides ``bit(age)`` so each :class:`FoldedHistory` can retrieve the bit
    falling out of its window on every update.
    """

    __slots__ = ("_buffer", "_head", "_size")

    def __init__(self, size: int):
        self._buffer = bytearray(size)
        self._head = 0
        self._size = size

    def push(self, taken: bool) -> None:
        self._head = (self._head + 1) % self._size
        self._buffer[self._head] = 1 if taken else 0

    def bit(self, age: int) -> int:
        """Outcome of the branch ``age`` steps ago (0 = most recent)."""
        return self._buffer[(self._head - age) % self._size]
