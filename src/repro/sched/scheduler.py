"""Benchmark-aligned sweep dispatch (``repro.sched.scheduler``).

:class:`SweepScheduler` runs ``run_cells``'s cells, each an ``(index,
benchmark, variant)`` triple in plan order, in three steps:

1. **Store probe** — when the session has a content-addressed
   :class:`~repro.sched.store.ResultStore`, every cell is probed under
   its :func:`~repro.sched.store.cell_key`; a cell that already landed
   (an earlier run of the same cell, killed or not, at any job count) is
   *resumed*: its row is synthesized from the store and never
   dispatched.
2. **Units** — :func:`build_units` groups the pending cells into
   benchmark-aligned dispatch units, journaled as a ``units_built``
   scheduler event; a benchmark's mpki-mode cells stay in one unit,
   which replays them as one batch.  A unit's first cell records the
   region into that process's in-memory trace cache and the rest replay
   it, with no disk round trip and no dependency edges.
3. **Dispatch** — with one job, or at most one unit, the units run
   inline in the calling session; otherwise they go to a
   ``multiprocessing`` pool (fork preferred, spawn fallback) and
   complete through one queue.  A landed unit's rows are written through
   to the store at once.

Rows are **recorded in cell-index order** regardless of completion
order: a per-cell buffer plus a cursor flush the contiguous prefix, which
keeps journal event sequences — and therefore journal digests —
identical for any job count, and makes the head-of-line unlanded cell
the one every later row waits behind.  Every row, run or resumed, is
built by :func:`cell_row`.

This module never imports :mod:`repro.session` (the unit runners are
injected), so the scheduler stays importable from workers and tools
without dragging the session machinery in.
"""

from __future__ import annotations

import os
import queue
import time
from typing import Callable, Collection, Dict, List, NamedTuple, \
    Optional, Sequence, Tuple

from repro.config import RunConfig
from repro.sched.store import ResultStore, cell_key

#: Scheduling counters reported by :meth:`SweepScheduler.stats`.
_STAT_FIELDS = ("cells_scheduled", "cells_resumed_from_store", "units")

#: One cell of a sweep plan: ``(index, benchmark, variant)``.
Cell = Tuple[int, str, str]


class SweepContext(NamedTuple):
    """What every cell of one sweep shares, shipped with each unit.

    ``config`` carries the sweep's region; ``cache`` is ``run_cells``'s
    result-cache flag.
    """

    config: RunConfig
    cache: bool
    outputs: str


def cell_row(benchmark: str, variant: str, index: Optional[int], *,
             started_at: float, wall_seconds: float, payload=None,
             error=None, peak_rss_kb_delta=None,
             trace_cache_hit=False, result_cache_hit=False,
             batch_size=None, result_store_hit=False) -> dict:
    """One sweep row, for a cell run alone, in a fused batch
    (``batch_size``) or resumed from the store (``result_store_hit``,
    absent otherwise so store-less journals keep their shape).

    ``error`` is a raising cell's ``{type, message, traceback}``.
    """
    row = {
        "benchmark": benchmark,
        "variant": variant,
        "index": index,
        "ok": error is None,
        "error": error,
        "payload": payload,
        "trace_cache_hit": trace_cache_hit,
        "result_cache_hit": result_cache_hit,
        "cell": {
            "started_at": round(started_at, 6),
            "wall_seconds": round(wall_seconds, 6),
            "peak_rss_kb_delta": peak_rss_kb_delta,
        },
        "worker": {"pid": os.getpid()},
    }
    if batch_size is not None:
        row["cell"]["batch_size"] = batch_size
    if result_store_hit:
        row["result_store_hit"] = True
    return row


def build_units(benchmarks: Sequence[str], pending: Sequence[int],
                jobs: int, fused: Collection[int] = ()) -> List[List[int]]:
    """Group a sweep's pending cell indices into dispatch units.

    ``benchmarks[i]`` names cell ``i``'s benchmark and ``pending`` lists
    the cells still to run, in plan order (resumed cells are left out).
    Each benchmark's pending cells form one unit, split into
    ``len(group) * jobs // len(pending)`` parts when that is at least
    two — i.e. only a benchmark holding 2/``jobs`` of the pending cells
    splits, so its tail spreads over idle workers.  The cells in
    ``fused`` (mpki-mode cells, which replay as one batch) never split:
    a benchmark's fused cells move as one piece.  Units come back
    ordered by their first index.
    """
    groups: Dict[str, Dict[Optional[int], List[int]]] = {}
    for position in pending:
        piece = None if position in fused else position
        groups.setdefault(benchmarks[position], {}) \
            .setdefault(piece, []).append(position)
    units: List[List[int]] = []
    for group in groups.values():
        pieces = list(group.values())
        cells = sum(map(len, pieces))
        parts = min(len(pieces), max(1, cells * jobs // len(pending)))
        size = -(-len(pieces) // parts)
        units.extend(sorted(sum(pieces[start:start + size], []))
                     for start in range(0, len(pieces), size))
    units.sort(key=lambda unit: unit[0])
    return units


def _pool_context():
    """The pool's multiprocessing context: fork where it exists, else spawn."""
    import multiprocessing
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # platform without fork
        return multiprocessing.get_context("spawn")


class SweepScheduler:
    """One sweep's store probe, dispatch units and dispatch loop.

    ``cells`` is the plan as ``(index, benchmark, variant)`` triples with
    ``index`` equal to the position.  A unit goes to its runner as one
    picklable ``(context, cells)`` pair, and the runner returns one row
    list per cell: ``run_unit`` runs it in the calling session (the
    inline path), ``worker_fn`` is the pool entry point
    (``repro.session._run_unit``).  ``store=None`` disables both the
    resume probe and write-through (``cache=False`` sweeps, or no
    ``result_store_dir`` configured).
    """

    def __init__(self, cells: Sequence[Cell], context: SweepContext,
                 worker_fn: Callable[[tuple], List[List[dict]]],
                 run_unit: Callable[[tuple], List[List[dict]]],
                 jobs: int = 1,
                 recorder=None,
                 store: Optional[ResultStore] = None):
        self.cells = list(cells)
        self.context = context
        self.worker_fn = worker_fn
        self.run_unit = run_unit
        self.jobs = max(1, jobs)
        self.recorder = recorder
        self.store = store
        self.executor_name: Optional[str] = None
        self.units = 0
        self.cells_scheduled = 0
        self.cells_resumed_from_store = 0

    # -- store integration -------------------------------------------------

    def _cell_key(self, benchmark: str, variant: str) -> Tuple:
        config = self.context.config
        return cell_key(benchmark, variant, config.instructions,
                        config.warmup, self.context.outputs)

    def _probe(self) -> Dict[int, dict]:
        """Synthesized rows of the cells that already landed in the store."""
        rows: Dict[int, dict] = {}
        for index, benchmark, variant in self.cells:
            record = self.store.get(self._cell_key(benchmark, variant))
            if record is None:
                continue
            rows[index] = cell_row(benchmark, variant, index,
                                   payload=record["payload"],
                                   started_at=time.time(), wall_seconds=0.0,
                                   result_store_hit=True)
        return rows

    def _store_row(self, row: dict) -> None:
        """Write-through: land an ok row's result under its cell key."""
        if self.store is None or not row.get("ok") \
                or row.get("payload") is None:
            return
        self.store.put(
            self._cell_key(row["benchmark"], row["variant"]),
            {"benchmark": row["benchmark"],
             "variant": row["variant"],
             "payload": row["payload"]})

    # -- the dispatch loop -------------------------------------------------

    def _unit(self, unit: List[int]) -> tuple:
        """The picklable ``(context, cells)`` argument of a unit runner."""
        return self.context, [self.cells[index] for index in unit]

    def run(self) -> List[dict]:
        """Execute the sweep; rows come back in cell-index order."""
        cells = self.cells
        rows = self._probe() if self.store is not None else {}
        pending = [index for index, _, _ in cells if index not in rows]
        self.cells_resumed_from_store = len(rows)
        self.cells_scheduled = len(pending)
        fused = {index for index, benchmark, variant in cells
                 if self._cell_key(benchmark, variant)[-1] == "mpki"}
        units = build_units([benchmark for _, benchmark, _ in cells],
                            pending, self.jobs, fused)
        self.units = len(units)
        pooled = self.jobs > 1 and len(units) > 1
        self.executor_name = "pool" if pooled else "inline"
        pool_context = _pool_context() if pooled else None

        if self.recorder is not None:
            self.recorder.executor = self.executor_name
            if pool_context is not None:
                self.recorder.start_method = pool_context.get_start_method()
            self.recorder.start()
            self.recorder.record_event(
                "units_built",
                units=len(units),
                executor=self.executor_name,
                jobs=self.jobs,
                resumed_cells=sorted(rows))

        cursor = 0

        def land(unit: List[int], unit_rows: List[List[dict]]) -> None:
            # record strictly by cell index: identical journal sequences
            # for any job count
            nonlocal cursor
            for index, (row,) in zip(unit, unit_rows):
                rows[index] = row
                self._store_row(row)
            while cursor < len(cells) and cursor in rows:
                if self.recorder is not None:
                    self.recorder.record_row(rows[cursor])
                cursor += 1

        land([], [])  # leading resumed cells stream immediately
        if not pooled:
            for unit in units:
                land(unit, self.run_unit(self._unit(unit)))
            return [rows[index] for index, _, _ in cells]

        done: "queue.SimpleQueue" = queue.SimpleQueue()
        pool = pool_context.Pool(processes=min(self.jobs, len(units)))
        try:
            for unit in units:
                pool.apply_async(
                    self.worker_fn, (self._unit(unit),),
                    callback=lambda unit_rows, unit=unit:
                        done.put((unit, unit_rows)),
                    error_callback=done.put)
            for _ in units:
                outcome = done.get()
                if isinstance(outcome, BaseException):
                    # infrastructure failure (cell errors come back as
                    # structured rows, never exceptions): abort the sweep
                    raise outcome
                land(*outcome)
        finally:
            pool.terminate()
            pool.join()
        return [rows[index] for index, _, _ in cells]

    # -- stats -------------------------------------------------------------

    def stats(self) -> dict:
        """Scheduling facts for reports and ``Session.last_sweep``."""
        info = {name: getattr(self, name) for name in _STAT_FIELDS}
        info["executor"] = self.executor_name
        if self.store is not None:
            info["store"] = self.store.stats()
        return info
