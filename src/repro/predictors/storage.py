"""Packed flat-array state storage for table-based predictors.

This module grows :mod:`repro.predictors.counters` into the shared storage
layer of every predictor family.  Predictor tables used to be Python lists
of boxed ints (or lists of per-entry objects); they are now flat
``array``/``bytearray`` stores:

* **signed counter stores** — ``array('b')`` / ``array('h')`` /
  ``array('l')`` picked by counter width.  CPython stores the values
  unboxed (1/2/4-8 bytes per entry instead of a ~28-byte ``int`` object
  plus an 8-byte pointer), which cuts predictor construction cost by an
  order of magnitude for the big MTAGE-SC tables and keeps the working
  set cache-resident.
* **unsigned counter stores** — ``bytearray`` for anything that fits a
  byte (2-bit bimodal/useful counters, loop confidence/age).  A
  ``bytearray`` additionally supports C-speed whole-table masking via
  ``bytes.translate`` (see :func:`mask_translation`), which is what makes
  the TAGE graceful useful-reset O(size) in C instead of Python.
* **saturating clamp tables** — a saturating increment/decrement becomes
  one list index instead of a compare-and-branch: precompute
  ``inc[v - lo] = min(v + 1, hi)`` once per (lo, hi) range and the hot
  update path is ``tbl[i] = inc[tbl[i] - lo]``.

The original list/object implementations are preserved verbatim in
:mod:`repro.predictors.reference`; ``tests/test_predictor_packed_differential.py``
pins bit-identity between the two spellings.

The :mod:`~repro.predictors.counters` primitives (``Lfsr``,
``FoldedHistory``, ``HistoryBuffer``, scalar saturate helpers) are
re-exported here so predictor modules have a single storage import.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from typing import List, Tuple

from repro.predictors.counters import (  # noqa: F401  (re-exports)
    FoldedHistory,
    HistoryBuffer,
    Lfsr,
    counter_predicts_taken,
    saturate_down,
    saturate_up,
    update_signed,
)

__all__ = [
    "FoldedHistory",
    "HistoryBuffer",
    "Lfsr",
    "counter_predicts_taken",
    "saturate_down",
    "saturate_up",
    "update_signed",
    "signed_typecode",
    "unsigned_typecode",
    "signed_store",
    "unsigned_store",
    "tag_store",
    "clamp_tables",
    "signed_clamp_tables",
    "mask_translation",
    "stacked_store",
    "stacked_from_stores",
]


def signed_typecode(bits: int) -> str:
    """Smallest ``array`` typecode holding a signed ``bits``-wide counter."""
    if bits <= 8:
        return "b"
    if bits <= 16:
        return "h"
    return "l"


def unsigned_typecode(bits: int) -> str:
    """Smallest ``array`` typecode holding an unsigned ``bits``-wide field."""
    if bits <= 8:
        return "B"
    if bits <= 16:
        return "H"
    return "L"


def signed_store(size: int, bits: int, fill: int = 0) -> array:
    """Flat store of ``size`` signed ``bits``-wide counters."""
    return array(signed_typecode(bits), [fill]) * size


def unsigned_store(size: int, fill: int = 0) -> bytearray:
    """Flat store of ``size`` unsigned byte-wide counters.

    ``bytearray`` rather than ``array('B')`` so whole-table masking can use
    ``bytes.translate`` (see :func:`mask_translation`).
    """
    if fill:
        return bytearray([fill]) * size
    return bytearray(size)


def tag_store(size: int, tag_bits: int) -> array:
    """Flat store of ``size`` zero-initialized ``tag_bits``-wide tags."""
    return array(unsigned_typecode(tag_bits), [0]) * size


@lru_cache(maxsize=None)
def clamp_tables(lo: int, hi: int) -> Tuple[List[int], List[int]]:
    """Precomputed saturating step tables for the value range [lo, hi].

    Returns ``(inc, dec)`` where ``inc[v - lo] == min(v + 1, hi)`` and
    ``dec[v - lo] == max(v - 1, lo)``.  Hot update paths replace the
    compare-and-branch saturate with a single list index::

        ctr[i] = inc[ctr[i] - lo]     # saturating increment

    The tables are cached per range, so every TAGE table of the same
    counter width shares one pair.
    """
    inc = [min(v + 1, hi) for v in range(lo, hi + 1)]
    dec = [max(v - 1, lo) for v in range(lo, hi + 1)]
    return inc, dec


def signed_clamp_tables(bits: int) -> Tuple[List[int], List[int]]:
    """:func:`clamp_tables` for a signed ``bits``-wide counter."""
    return clamp_tables(-(1 << (bits - 1)), (1 << (bits - 1)) - 1)


def stacked_store(np, lanes: int, entries: int, fill: int = 0,
                  dtype=None):
    """A ``(lanes, entries)`` stacked counter store for batched kernels.

    The lane-stacked twin of :func:`signed_store`/:func:`unsigned_store`:
    K lanes' flat tables become the rows of one matrix so per-event
    gather/scatter amortizes numpy call overhead across every lane.
    ``np`` is the array module the calling kernel runs on.
    """
    if fill:
        return np.full((lanes, entries), fill, dtype=dtype or np.int64)
    return np.zeros((lanes, entries), dtype=dtype or np.int64)


def stacked_from_stores(np, stores, dtype=None):
    """Pack per-lane flat stores (equal length) into one stacked matrix.

    Accepts the ``array``/``bytearray`` stores predictors export via
    ``export_state()``; each becomes one row.  Lets batched kernels (and
    their tests) lift live scalar state into the stacked layout.
    """
    rows = [np.frombuffer(bytes(store), dtype=np.uint8)
            if isinstance(store, (bytes, bytearray))
            else np.asarray(store) for store in stores]
    out = np.stack(rows)
    if dtype is not None:
        out = out.astype(dtype)
    return out


@lru_cache(maxsize=None)
def mask_translation(mask: int) -> bytes:
    """256-byte translation table computing ``value & mask`` per byte.

    ``store[:] = store.translate(mask_translation(mask))`` masks a whole
    ``bytearray`` store in C — the packed spelling of TAGE's graceful
    useful-bit reset, which the reference implementation performs with a
    Python loop over every entry of every table.
    """
    return bytes((value & mask) & 0xFF for value in range(256))
