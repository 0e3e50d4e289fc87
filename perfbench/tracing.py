"""Span recorder for the traced benchmark run.

The simulator has no tracing of its own, so the traced run wraps the
public entry points of each layer from outside: :func:`instrument` swaps
class and module attributes for timing wrappers and restores them on
exit.  Every wrapped call is a span named ``<layer>.<entry>``.  A span's
*busy* time is its duration and its *self* time excludes the child spans
that ran inside it, so the self times of all spans of an operation, plus
the operation's own uncovered time (span ``op``), add up to the
operation's wall time.

Spans are aggregated in memory per operation as ``{span: [calls, busy_s,
self_s]}`` plus host-side counters, and :meth:`Recorder.write` dumps the
per-operation records when the run ends.  Pool workers forked by the
sweep scheduler inherit the wrappers; each dispatch unit ships its
worker-side aggregates back on its first row, and they are folded into
the operation's totals.  Worker spans ran in parallel with the parent,
so they are never subtracted from a parent span's self time.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

#: Row key that carries a pool worker's span aggregates to the parent.
WORKER_SPANS_KEY = "perfbench_worker_spans"

#: The operation's root span: time inside an operation that no named
#: layer claims.
OP = "op"


class Recorder:
    """Span stack plus per-operation span aggregates and counters."""

    def __init__(self):
        self.stack: List[list] = []
        #: span name -> [calls, busy_s, self_s] for the current operation.
        self.spans: Dict[str, list] = {}
        #: Host-side counters read at layer boundaries (``trace_cache.hits``).
        self.counts: Dict[str, float] = {}
        #: One record per traced operation, in run order.
        self.ops: List[dict] = []
        self._origin = time.perf_counter()

    def close(self, frame: list, start: float, end: float,
              calls: int = 1) -> None:
        """Pop ``frame`` (``[name, child_seconds]``) and book its span."""
        self.stack.pop()
        duration = end - start
        entry = self.spans.get(frame[0])
        if entry is None:
            entry = self.spans[frame[0]] = [0, 0.0, 0.0]
        entry[0] += calls
        entry[1] += duration
        entry[2] += duration - frame[1]
        if self.stack:
            self.stack[-1][1] += duration

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    @contextmanager
    def operation(self, name: str):
        """Root span of one benchmark operation."""
        self.spans = {}
        self.counts = {}
        frame = [OP, 0.0]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.close(frame, start, end)
            self.ops.append({
                "name": name,
                "start_s": start - self._origin,
                "wall_s": end - start,
                "spans": self.spans,
                "counts": self.counts,
            })

    def merge_worker(self, shipped: dict) -> None:
        """Fold a pool worker's aggregates into the current operation."""
        for name, (calls, busy, own) in shipped["spans"].items():
            entry = self.spans.get(name)
            if entry is None:
                entry = self.spans[name] = [0, 0.0, 0.0]
            entry[0] += calls
            entry[1] += busy
            entry[2] += own
        for name, value in shipped["counts"].items():
            self.count(name, value)

    def drain_worker(self) -> dict:
        shipped = {"spans": self.spans, "counts": self.counts}
        self.spans = {}
        self.counts = {}
        return shipped

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"operations": self.ops}, handle)


# -- wrappers --------------------------------------------------------------

def timed_call(recorder: Recorder, name: str, fn: Callable,
               after: Optional[Callable] = None) -> Callable:
    """Wrap ``fn`` so each outermost call is a ``name`` span.

    A call made while a span of the same name is innermost (``observe``
    calling ``predict``, a composite predictor calling its components)
    runs untimed, so busy time is never booked twice.
    ``after(recorder, args, kwargs, result)`` reads counters.
    """
    stack = recorder.stack
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if stack and stack[-1][0] == name:
            return fn(*args, **kwargs)
        frame = [name, 0.0]
        stack.append(frame)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(frame, start, clock())
        if after is not None:
            after(recorder, args, kwargs, result)
        return result

    return wrapper


def timed_iter(recorder: Recorder, name: str,
               iterator: Iterator) -> Iterator:
    """Book the time spent producing each item; one item is one call."""
    stack = recorder.stack
    clock = time.perf_counter
    close = recorder.close
    while True:
        frame = [name, 0.0]
        stack.append(frame)
        start = clock()
        try:
            item = next(iterator)
        except StopIteration:
            # the final pull is work but yields no item
            close(frame, start, clock(), calls=0)
            return
        except BaseException:
            close(frame, start, clock(), calls=0)
            raise
        close(frame, start, clock())
        yield item


def iter_wrapper(recorder: Recorder, name: str, fn: Callable) -> Callable:
    """Wrap a function returning an iterator so production is timed."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return timed_iter(recorder, name, iter(fn(*args, **kwargs)))

    return wrapper


# -- counters read at layer boundaries -------------------------------------

def _count_fast_forward(recorder, args, kwargs, result):
    recorder.count("emulator.fast_forward_uops", result or 0)


def _count_lookup(recorder, args, kwargs, result):
    counted = kwargs.get("count", args[4] if len(args) > 4 else True)
    if counted:
        recorder.count("trace_cache.hits" if result is not None
                       else "trace_cache.misses", 1)


def _count_replay_batch(recorder, args, kwargs, result):
    recorder.count("replay.lanes", len(result))
    if result:
        recorder.count("replay.lanes_deduped", result[0].lanes_deduped or 0)
    recorder.count("replay.lane_branches",
                   sum(lane.core.cond_branches for lane in result))


def _count_core_run(recorder, args, kwargs, result):
    warmup = kwargs.get("warmup", args[2] if len(args) > 2 else 0)
    recorder.count("uarch.uops", result.instructions
                   + (0 if result.warmup_truncated else warmup))
    recorder.count("uarch.rob_stalls", args[0].rob.stall_events)


def _count_run_cells(recorder, args, kwargs, result):
    recorder.count("sched.cells", len(result))
    harvest_worker_spans(recorder, result)


def _count_store_get(recorder, args, kwargs, result):
    recorder.count("store.hits" if result is not None else "store.misses",
                   1)


def harvest_worker_spans(recorder: Recorder, rows: List[dict]) -> None:
    """Move worker aggregates shipped on sweep rows into the recorder."""
    for row in rows:
        shipped = row.pop(WORKER_SPANS_KEY, None)
        if shipped is not None:
            recorder.merge_worker(shipped)


def _predictor_classes() -> list:
    from repro.predictors.base import BranchPredictor
    found, pending = [], [BranchPredictor]
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


@contextmanager
def instrument(recorder: Recorder):
    """Install the layer wrappers for the duration of the block."""
    import repro.session as session_mod
    import repro.sim.predictor_replay as replay_mod
    from repro.core.runahead import BranchRunahead
    from repro.emulator.machine import Machine
    from repro.memsys.hierarchy import MemoryHierarchy
    from repro.sched.store import ResultStore
    from repro.sim.trace_cache import ReplayMachine, TraceCache
    from repro.uarch.core import CoreModel

    patches = []  # (owner, attribute, replacement)

    def call(owner, attr, name, after=None):
        patches.append((owner, attr, timed_call(
            recorder, name, vars(owner)[attr], after)))

    def produce(owner, attr, name):
        patches.append((owner, attr, iter_wrapper(
            recorder, name, vars(owner)[attr])))

    produce(Machine, "stream", "emulator.stream")
    call(Machine, "fast_forward", "emulator.fast_forward",
         _count_fast_forward)
    call(Machine, "__init__", "emulator.init")
    produce(TraceCache, "record", "trace_cache.record")
    produce(ReplayMachine, "stream", "trace_cache.replay")
    call(ReplayMachine, "__init__", "trace_cache.replay")
    call(TraceCache, "lookup", "trace_cache.lookup", _count_lookup)
    call(TraceCache, "branch_columns", "trace_cache.lookup", _count_lookup)
    for attr in ("_spill_to_disk", "_spill_events"):
        call(TraceCache, attr, "trace_cache.spill_write")
    for attr in ("_load_from_disk", "_load_events"):
        call(TraceCache, attr, "trace_cache.spill_read")
    call(replay_mod, "load_branch_columns", "branch_events.load")
    # the session imported the function by name: patch both bindings
    replay_batch = timed_call(recorder, "replay.batch",
                              replay_mod.replay_mpki_batch,
                              _count_replay_batch)
    patches.append((replay_mod, "replay_mpki_batch", replay_batch))
    patches.append((session_mod, "replay_mpki_batch", replay_batch))
    for cls in _predictor_classes():
        for attr in ("observe", "predict", "update"):
            method = vars(cls).get(attr)
            if method is not None \
                    and not getattr(method, "__isabstractmethod__", False):
                call(cls, attr, "predictors.call")
        if "__init__" in vars(cls):
            call(cls, "__init__", "predictors.init")
    for attr in ("access_insn", "access_data"):
        call(MemoryHierarchy, attr, "memsys.access")
    call(MemoryHierarchy, "__init__", "memsys.init")
    call(CoreModel, "run", "uarch.run", _count_core_run)
    call(CoreModel, "__init__", "uarch.init")
    for attr in ("fetch_prediction", "on_branch_resolved", "on_retire"):
        call(BranchRunahead, attr, "runahead.hook")
    for attr in ("__init__", "end_region"):
        call(BranchRunahead, attr, "runahead.setup")
    call(session_mod.Session, "run_cells", "sched.run_cells",
         _count_run_cells)
    call(ResultStore, "get", "store.read", _count_store_get)
    call(ResultStore, "put", "store.write")

    # pool workers run each dispatch unit under a fresh stack and ship the
    # unit's aggregates back on its first row
    run_unit = session_mod._run_unit

    def worker_unit(unit):
        recorder.stack.clear()
        recorder.drain_worker()
        rows = run_unit(unit)
        if rows and rows[0]:
            rows[0][0][WORKER_SPANS_KEY] = recorder.drain_worker()
        return rows

    # the pool pickles the unit function by name; keep the name resolving
    # to this wrapper while it is installed
    worker_unit.__module__ = run_unit.__module__
    worker_unit.__qualname__ = run_unit.__qualname__
    patches.append((session_mod, "_run_unit", worker_unit))

    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in patches]
    for owner, attr, replacement in patches:
        setattr(owner, attr, replacement)
    try:
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
