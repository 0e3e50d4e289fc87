"""Content-addressed sweep result store (``repro.sched.store``).

The trace cache made *emulation* resumable across processes; this module
does the same for finished *cells*.  :func:`cell_key` is a cell result's
one identity, which the session's result LRU keys on directly and a
:class:`ResultStore` through a sha256 of it.  Records are framed,
digest-checked cell payload dicts, using exactly the trace cache's
on-disk scheme (:func:`~repro.sim.trace_cache.write_framed`
/ :func:`~repro.sim.trace_cache.read_framed`): magic + u16 version +
payload sha256 header, same-directory temp file + ``os.replace`` so
concurrent workers racing on one key never expose a half-written entry.

A killed sweep's landed cells are on disk under keys any rerun of the
same cells recomputes, at any job count or cache setting, so the
scheduler probes the store at plan time and only executes cells with no
landed result.  Any damaged entry (truncation, bit rot, version skew,
key collision) reads back as a counted clean miss and the offender is
deleted best-effort, mirroring the trace cache's corruption contract
(``tests/test_result_store.py`` pins it the same way
``tests/test_trace_cache_disk.py`` does).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from typing import Optional, Tuple

from repro.sim.trace_cache import read_framed, write_framed
from repro.sim.variants import is_predictor_only

#: On-disk record version; hashed into every file name and written in
#: the frame header, so a layout change simply never finds old files.
RESULT_FORMAT_VERSION = 1

_MAGIC = b"RPRS"


def cell_key(benchmark: str, variant: str, instructions: int, warmup: int,
             outputs: str) -> Tuple[str, str, int, int, str]:
    """The identity of one cell result.

    ``mode`` is ``"mpki"`` only for a predictor-only variant under
    ``outputs="mpki"`` (the replay fast path); any other cell runs the
    full simulator.  Nothing else in a ``RunConfig`` changes a payload,
    so job counts, cache bounds and directories never split a key.
    """
    if outputs not in ("full", "mpki"):
        raise ValueError(f"unknown outputs mode {outputs!r}")
    mode = "mpki" if outputs == "mpki" and is_predictor_only(variant) \
        else "full"
    return (benchmark, variant, instructions, warmup, mode)


class ResultStore:
    """Directory of framed cell-result records, keyed by content address.

    Single-writer-per-key by construction (atomic rename; ``put`` skips
    keys that already exist), safe for many concurrent readers.  All
    failure modes count instead of raising: the store is a resume
    accelerator, never a correctness input.
    """

    def __init__(self, directory: str):
        self.directory = os.fspath(directory)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.store_errors = 0
        self.corrupt_entries = 0

    def path_for(self, key: Tuple) -> str:
        """The record file of a :func:`cell_key`: a sha256 of the key."""
        canonical = json.dumps([*key, RESULT_FORMAT_VERSION],
                               separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode()).hexdigest()
        return os.path.join(self.directory, f"{digest}.result")

    def get(self, key: Tuple) -> Optional[dict]:
        """The stored record for ``key``, or None on a (counted) miss.

        Records are ``{"benchmark", "variant", "payload", "key"}`` dicts;
        readers ignore any other key, so older records that also carry a
        copy of the cell's stat registry still resume.  A record whose
        embedded key does not match the filename's is treated as corrupt
        (a rename or collision would otherwise resume the wrong cell).
        """
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            self.misses += 1
            return None
        try:
            record = pickle.loads(
                read_framed(blob, _MAGIC, RESULT_FORMAT_VERSION))
            if record.get("key") != key:
                raise ValueError("key mismatch")
        except Exception:
            # truncated/garbage/stale record: drop it so the next sweep
            # recomputes and re-stores the cell
            self.corrupt_entries += 1
            try:
                os.remove(path)
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(self, key: Tuple, record: dict) -> bool:
        """Store a record under ``key``; failures only count.

        Returns True when this call wrote the entry.  An existing entry
        is left untouched — results are content-addressed, so the first
        writer's record is as good as any later one.
        """
        path = self.path_for(key)
        try:
            if os.path.exists(path):
                return False
            payload = pickle.dumps({**record, "key": key},
                                   protocol=pickle.HIGHEST_PROTOCOL)
            os.makedirs(self.directory, exist_ok=True)
            write_framed(path, payload, _MAGIC, RESULT_FORMAT_VERSION)
        except OSError:
            self.store_errors += 1
            return False
        self.stores += 1
        return True

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "store_errors": self.store_errors,
                "corrupt_entries": self.corrupt_entries}

    def __repr__(self) -> str:
        return (f"ResultStore({self.directory!r}, hits={self.hits}, "
                f"misses={self.misses}, stores={self.stores})")
