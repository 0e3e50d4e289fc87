"""Benchmark-aligned sweep dispatch (``repro.sched.scheduler``).

:class:`SweepScheduler` runs ``run_cells``'s compiled tasks (scalar
cells and fused batch groups, in plan order) in three steps:

1. **Store probe** — when the session has a content-addressed
   :class:`~repro.sched.store.ResultStore`, every task's cells are probed
   first under its :func:`~repro.sched.store.cell_key`; a task whose
   every member already landed (an earlier run of the same cells, killed
   or not, at any job count) is *resumed*: its rows are synthesized from
   the store and never dispatched.
2. **Units** — the pending tasks are grouped into dispatch units,
   journaled as a ``units_built`` scheduler event.  A serial sweep (one
   job, or at most one pending task) runs one task per unit inline in the
   calling session.  A pool sweep runs :func:`build_units`: each
   benchmark's tasks, in plan order, ride one unit, so the unit's first
   task records the region into that worker's in-memory trace cache and
   the rest replay it, with no disk round trip and no dependency edges.
3. **Dispatch** — pool units go to a ``multiprocessing`` pool (fork
   preferred, spawn fallback) and complete through one queue; a finished
   unit's rows are written through to the store as soon as it lands.

Rows are **recorded in task order** regardless of completion order: a
per-task buffer plus a cursor flush the contiguous prefix, which keeps
journal event sequences — and therefore journal digests — identical for
any job count.  Every row, run or resumed, is built by :func:`cell_row`.

This module never imports :mod:`repro.session` (the task runners are
injected), so the scheduler stays importable from workers and tools
without dragging the session machinery in.
"""

from __future__ import annotations

import os
import queue
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sched.store import ResultStore, cell_key

#: Scheduling counters reported by :meth:`SweepScheduler.stats`.
_STAT_FIELDS = ("cells_scheduled", "cells_resumed_from_store", "units")


def cell_row(benchmark: str, variant: str, index: Optional[int], *,
             started_at: float, wall_seconds: float, payload=None,
             error=None, peak_rss_kb_delta=None,
             trace_cache_hit=False, result_cache_hit=False, manifest=None,
             batch_size=None, result_store_hit=False) -> dict:
    """One sweep row, for a cell run alone, in a fused batch
    (``batch_size``) or resumed from the store (``result_store_hit``,
    absent otherwise so store-less journals keep their shape).

    ``error`` is a raising cell's ``{type, message, traceback}``;
    ``manifest`` is the worker's run manifest on its first journaled row.
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
        "worker": {"pid": os.getpid(), "manifest": manifest},
    }
    if batch_size is not None:
        row["cell"]["batch_size"] = batch_size
    if result_store_hit:
        row["result_store_hit"] = True
    return row


def _task_cells(task: Tuple) -> List[Tuple[int, str, str]]:
    """The ``(cell_index, benchmark, variant)`` members of one task."""
    benchmark = task[1]
    if isinstance(task[2], tuple):  # fused batch group
        return [(index, benchmark, variant) for variant, index in task[2]]
    return [(task[7]["index"], benchmark, task[2])]


def build_units(benchmarks: Sequence[str], pending: Sequence[int],
                jobs: int) -> List[List[int]]:
    """Group a pool sweep's pending task positions into dispatch units.

    ``benchmarks[i]`` names task ``i``'s benchmark and ``pending`` lists
    the positions still to run, in plan order (resumed tasks are left
    out).  Each benchmark's pending tasks form one unit, split into
    ``len(group) * jobs // len(pending)`` parts when that is at least
    two — i.e. only a benchmark holding 2/``jobs`` of the pending tasks
    splits, so its tail spreads over idle workers.  Units come back
    ordered by their first position.
    """
    groups: Dict[str, List[int]] = {}
    for position in pending:
        groups.setdefault(benchmarks[position], []).append(position)
    units: List[List[int]] = []
    for group in groups.values():
        parts = min(len(group), max(1, len(group) * jobs // len(pending)))
        size = -(-len(group) // parts)
        units.extend(group[start:start + size]
                     for start in range(0, len(group), size))
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

    ``tasks`` is ``run_cells``'s compiled task list (scalar cells and
    fused batch groups, plan-ordered).  ``run_task`` runs one task in the
    calling session (the serial path); ``worker_fn`` is the picklable
    pool entry point (``repro.session._run_unit``) that maps a unit's
    task list to one row list per task.  ``store=None`` disables both the
    resume probe and write-through (``cache=False`` sweeps, or no
    ``result_store_dir`` configured).
    """

    def __init__(self, tasks: List[tuple], task_config,
                 worker_fn: Callable[[List[tuple]], List[List[dict]]],
                 run_task: Callable[[tuple], List[dict]],
                 jobs: int = 1,
                 recorder=None,
                 store: Optional[ResultStore] = None,
                 outputs: str = "full"):
        self.tasks = tasks
        self.task_config = task_config
        self.worker_fn = worker_fn
        self.run_task = run_task
        self.jobs = max(1, jobs)
        self.recorder = recorder
        self.store = store
        self.outputs = outputs
        self.executor_name: Optional[str] = None
        self.units = 0
        self.cells_scheduled = 0
        self.cells_resumed_from_store = 0

    # -- store integration -------------------------------------------------

    def _cell_key(self, benchmark: str, variant: str) -> Tuple:
        return cell_key(benchmark, variant, self.task_config.instructions,
                        self.task_config.warmup, self.outputs)

    def _probe_task(self, task: Tuple,
                    carry_manifest: bool) -> Optional[List[dict]]:
        """Synthesized rows for a fully-landed task, else None.

        A batch task resumes only when *every* member landed — the fused
        replay is all-or-nothing, and a partial group re-executes whole
        (its already-landed members are simply re-stored as no-op puts).
        The first synthesized row of a journaled sweep carries the
        parent's run manifest so the journal's drift audit can still
        vouch for the stream these rows land on.
        """
        records = []
        for index, benchmark, variant in _task_cells(task):
            record = self.store.get(self._cell_key(benchmark, variant))
            if record is None:
                return None
            records.append((index, benchmark, variant, record))
        manifest = None
        if carry_manifest and self.recorder is not None \
                and self.recorder.path is not None:
            from repro.observe.manifest import run_manifest
            manifest = run_manifest(self.task_config)
        return [cell_row(benchmark, variant, index,
                         payload=record["payload"],
                         started_at=time.time(), wall_seconds=0.0,
                         manifest=None if position else manifest,
                         result_store_hit=True)
                for position, (index, benchmark, variant, record)
                in enumerate(records)]

    def _store_rows(self, rows: List[dict]) -> None:
        """Write-through: land each ok row's result under its cell key."""
        if self.store is None:
            return
        for row in rows:
            if not row.get("ok") or row.get("payload") is None:
                continue
            self.store.put(
                self._cell_key(row["benchmark"], row["variant"]),
                {"benchmark": row["benchmark"],
                 "variant": row["variant"],
                 "payload": row["payload"]})

    # -- the dispatch loop -------------------------------------------------

    def run(self) -> List[dict]:
        """Execute the sweep; rows come back in task (plan) order."""
        tasks = self.tasks
        task_rows: Dict[int, List[dict]] = {}
        resumed_cells: List[int] = []
        if self.store is not None:
            for position, task in enumerate(tasks):
                rows = self._probe_task(
                    task, carry_manifest=not resumed_cells)
                if rows is not None:
                    task_rows[position] = rows
                    resumed_cells.extend(
                        index for index, _, _ in _task_cells(task))
        pending = [position for position in range(len(tasks))
                   if position not in task_rows]
        self.cells_resumed_from_store = len(resumed_cells)
        self.cells_scheduled = sum(len(_task_cells(tasks[position]))
                                   for position in pending)
        serial = self.jobs == 1 or len(pending) <= 1
        context = None
        if serial:
            self.executor_name = "inline"
            units = [[position] for position in pending]
        else:
            self.executor_name = "pool"
            units = build_units([task[1] for task in tasks], pending,
                                self.jobs)
            context = _pool_context()
        self.units = len(units)

        if self.recorder is not None:
            self.recorder.executor = self.executor_name
            if context is not None:
                self.recorder.start_method = context.get_start_method()
            self.recorder.start()
            self.recorder.record_event(
                "units_built",
                units=len(units),
                executor=self.executor_name,
                jobs=self.jobs,
                resumed_cells=sorted(resumed_cells))

        rows_out: List[dict] = []
        cursor = 0

        def flush() -> None:
            # record/return strictly by plan position: identical journal
            # sequences for any job count
            nonlocal cursor
            while cursor < len(tasks) and cursor in task_rows:
                for row in task_rows[cursor]:
                    if self.recorder is not None:
                        self.recorder.record_row(row)
                    rows_out.append(row)
                cursor += 1

        def land(position: int, rows: List[dict]) -> None:
            task_rows[position] = rows
            self._store_rows(rows)
            flush()

        flush()  # leading resumed tasks stream immediately
        if serial:
            for (position,) in units:
                land(position, self.run_task(tasks[position]))
            return rows_out

        done: "queue.SimpleQueue" = queue.SimpleQueue()
        pool = context.Pool(processes=min(self.jobs, len(units)))
        try:
            for unit in units:
                pool.apply_async(
                    self.worker_fn, ([tasks[position] for position in unit],),
                    callback=lambda rows, unit=unit: done.put((unit, rows)),
                    error_callback=done.put)
            for _ in units:
                outcome = done.get()
                if isinstance(outcome, BaseException):
                    # infrastructure failure (cell errors come back as
                    # structured rows, never exceptions): abort the sweep
                    raise outcome
                unit, unit_rows = outcome
                for position, rows in zip(unit, unit_rows):
                    land(position, rows)
        finally:
            pool.terminate()
            pool.join()
        return rows_out

    # -- stats -------------------------------------------------------------

    def stats(self) -> dict:
        """Scheduling facts for reports and ``Session.last_sweep``."""
        info = {name: getattr(self, name) for name in _STAT_FIELDS}
        info["executor"] = self.executor_name
        if self.store is not None:
            info["store"] = self.store.stats()
        return info
