"""Compact columnar branch-event storage (the MPKI sweep working set).

The MPKI-only replay path (:mod:`repro.sim.predictor_replay`) consumes
exactly one projection of a recorded region: the committed conditional
branches as ``(region_index, pc, taken)``.  The batched replay kernel
indexes ``pcs`` and ``takens`` as flat vectors, and re-deriving them from
pickled :class:`~repro.emulator.trace.DynamicUop` records after every
disk reload would repay the full unpickle cost just to throw away
everything but three fields per branch.

:class:`BranchColumns` is the columnar form: three parallel columns
(``indices``/``pcs`` as ``array('I')``, ``takens`` as a ``bytearray`` of
0/1) plus the region's total record count (the replay path needs it for
warmup-truncation semantics).

On disk the columns live in ``.events`` sidecar files next to the trace
cache's ``.trace`` entries.  This module packs and unpacks the payload
(program fingerprint, record/event counts, and the three raw columns);
the trace cache frames it exactly like a ``.trace`` entry
(:func:`~repro.sim.trace_cache.write_framed`: an ``RPBE`` magic, a u16
format version, the sha256 of the payload) under the same
content-sha256 filename + atomic-rename discipline.  Any truncation,
digest, length or fingerprint mismatch, or version skew raises
``ValueError``, which the cache turns into a clean counted miss — never a
crash.  A sidecar is ~9 bytes per branch versus ~100+ per record in the
pickle, and reading it never touches ``pickle`` at all.
"""

from __future__ import annotations

import struct
import sys
from array import array
from typing import Iterable, Optional

from repro.emulator.trace import DynamicUop
from repro.isa.uop import KIND_COND_BRANCH

#: Sidecar format version; participates in the filename *and* the header,
#: so old files are never found and would be rejected if renamed.
EVENT_FORMAT_VERSION = 1

#: Sidecar frame magic (see :func:`~repro.sim.trace_cache.write_framed`).
EVENT_MAGIC = b"RPBE"

_COUNTS = struct.Struct("<QQ")  # record_count, event_count

# 'I' is guaranteed >= 2 bytes only; every supported platform makes it 4,
# which the fixed-width disk layout depends on.
_U32 = "I" if array("I").itemsize == 4 else "L"
assert array(_U32).itemsize == 4, "no 4-byte unsigned array typecode"


class BranchColumns:
    """Columnar branch events of one region, plus its record count."""

    __slots__ = ("indices", "pcs", "takens", "record_count")

    def __init__(self, indices: array, pcs: array, takens: bytearray,
                 record_count: int):
        self.indices = indices
        self.pcs = pcs
        self.takens = takens
        self.record_count = record_count

    def __len__(self) -> int:
        return len(self.indices)


def extract_columns(records: Iterable[DynamicUop],
                    record_count: Optional[int] = None) -> BranchColumns:
    """Project a committed record sequence down to its branch columns.

    ``record_count`` defaults to ``len(records)``; pass it explicitly when
    ``records`` is a plain iterable.
    """
    indices = array(_U32)
    pcs = array(_U32)
    takens = bytearray()
    count = 0
    for index, record in enumerate(records):
        count += 1
        if record.uop.kind == KIND_COND_BRANCH:
            indices.append(index)
            pcs.append(record.pc)
            takens.append(1 if record.taken else 0)
    if record_count is None:
        record_count = count
    return BranchColumns(indices, pcs, takens, record_count)


# -- disk sidecar payload -----------------------------------------------------

def pack_columns(columns: BranchColumns, fingerprint: str) -> bytes:
    """The sidecar payload: fingerprint, counts, then the raw columns."""
    indices, pcs = columns.indices, columns.pcs
    if sys.byteorder == "big":  # pragma: no cover - little-endian hosts
        indices, pcs = array(_U32, indices), array(_U32, pcs)
        indices.byteswap()
        pcs.byteswap()
    return b"".join((
        bytes.fromhex(fingerprint),
        _COUNTS.pack(columns.record_count, len(columns)),
        indices.tobytes(), pcs.tobytes(), bytes(columns.takens),
    ))


def unpack_columns(payload: bytes, fingerprint: str) -> BranchColumns:
    """Decode a sidecar payload; raises ValueError on any mismatch."""
    if payload[:32] != bytes.fromhex(fingerprint):
        raise ValueError("program fingerprint mismatch")
    if len(payload) < 32 + _COUNTS.size:
        raise ValueError("truncated payload")
    record_count, event_count = _COUNTS.unpack_from(payload, 32)
    offset = 32 + _COUNTS.size
    column_bytes = event_count * 4
    expected = offset + 2 * column_bytes + event_count
    if len(payload) != expected:
        raise ValueError("payload length mismatch")
    indices = array(_U32)
    indices.frombytes(payload[offset:offset + column_bytes])
    offset += column_bytes
    pcs = array(_U32)
    pcs.frombytes(payload[offset:offset + column_bytes])
    offset += column_bytes
    if sys.byteorder == "big":  # pragma: no cover - little-endian hosts
        indices.byteswap()
        pcs.byteswap()
    takens = bytearray(payload[offset:])
    if takens and not set(takens) <= {0, 1}:
        raise ValueError("taken column holds non-boolean bytes")
    return BranchColumns(indices, pcs, takens, record_count)
