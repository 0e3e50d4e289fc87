"""Session-scoped experiment state (``repro.session``).

A :class:`Session` owns the bounded result-cache LRU, the shared
committed-trace cache and the optional result store, bound to one frozen
:class:`~repro.config.RunConfig`.  Two sessions with different configs
coexist in one process with fully independent caches.  There is no
process-wide default: every caller builds the session it runs under.
``Session()`` resolves defaults < config file < ``REPRO_*`` env once,
when it is built; the CLI builds one from its fully resolved config
(``--config-file`` and flags included).  A session never re-resolves.

A cell is a benchmark plus a variant token (override tokens such as
``"mini[hbt_entries=8]"`` included) and :func:`~repro.sched.store.cell_key`
is its one identity, which both result tiers key on: the in-memory LRU
of live results (whose runahead oracle and chain cache the figure
benches read) and the on-disk :class:`~repro.sched.store.ResultStore` of
payload records, which cannot rebuild them.  A sweep row carries the
cell's payload plus host facts (wall time, cache hits).

Worker processes: each dispatch unit pickles the sweep's ``RunConfig``;
the worker resolves it to a session via :func:`_session_for_config`, so a
spawn-start worker reconstructs the *exact* parent configuration instead
of re-deriving one from inherited environment variables, while a
fork-start worker reuses the inherited warm session (trace cache
included) when the config matches.
"""

from __future__ import annotations

import time
import traceback as _traceback
import uuid
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import RunConfig, current_config
from repro.sched import ResultStore, SweepContext, SweepScheduler, \
    cell_key, cell_row
from repro.sched.scheduler import Cell
from repro.sim.predictor_replay import replay_mpki_batch
from repro.sim.results import SimulationResult
from repro.sim.simulator import simulate
from repro.sim.trace_cache import TraceCache
from repro.sim.variants import variant_kwargs
from repro.telemetry.timers import peak_rss_kb
from repro.workloads import suite

#: Bound on a session's result-cache LRU entries.
RESULT_CACHE_SIZE = 256


class Session:
    """One experiment context: a config plus the caches it governs."""

    def __init__(self, config: Optional[RunConfig] = None):
        if config is None:
            config = current_config()
        self.config = config.validate()
        #: Shared committed-trace cache: one functional emulation per
        #: benchmark region, replayed by every variant of this session.
        self.trace_cache = TraceCache(disk_dir=config.trace_cache_dir)
        #: Bounded result-cache LRU of live results, keyed by
        #: :func:`~repro.sched.store.cell_key` (``simulate`` adds its own
        #: kwargs-keyed entries).
        self._results: "OrderedDict[Tuple, SimulationResult]" = \
            OrderedDict()
        #: Result-cache hit counter (journal cell events report per-cell
        #: hit flags the same way the trace cache already does).
        self.result_cache_hits = 0
        #: Content-addressed cell-result store: landed sweep results
        #: persist here, making a killed sweep resumable (see
        #: :mod:`repro.sched.store`).  None unless the config names a
        #: directory.
        self.result_store: Optional[ResultStore] = \
            ResultStore(config.result_store_dir) \
            if config.result_store_dir else None
        #: Scheduling facts of the most recent ``run_cells`` sweep
        #: (executor, units, resumed/scheduled cell counts).
        self.last_sweep: Optional[dict] = None

    # -- result cache ------------------------------------------------------

    @property
    def result_cache(self) -> "OrderedDict[Tuple, SimulationResult]":
        return self._results

    def _cache_get(self, key: Tuple) -> Optional[SimulationResult]:
        result = self._results.get(key)
        if result is not None:
            self._results.move_to_end(key)
            self.result_cache_hits += 1
        return result

    def _cache_put(self, key: Tuple, result: SimulationResult) -> None:
        if key in self._results:
            self._results.move_to_end(key)
        self._results[key] = result
        while len(self._results) > RESULT_CACHE_SIZE:
            self._results.popitem(last=False)

    def clear_caches(self) -> None:
        """Drop this session's caches."""
        self._results.clear()
        self.trace_cache.clear()

    # -- single cells ------------------------------------------------------

    def run(self, benchmark: str, variant: str,
            instructions: Optional[int] = None,
            warmup: Optional[int] = None,
            cache: bool = True,
            outputs: str = "full") -> SimulationResult:
        """Run (or fetch from cache) one benchmark under one variant.

        ``variant`` is any variant token; ``"mini[hbt_entries=8]"`` (see
        :func:`~repro.sim.variants.override_variant`) runs Mini with that
        field changed.  Results are cached under their
        :func:`~repro.sched.store.cell_key`; ``cache=False`` bypasses the
        result cache entirely — no lookup, no store.

        ``outputs="mpki"`` declares that only branch-outcome statistics
        are wanted: predictor-only cells then replay through
        :func:`~repro.sim.predictor_replay.replay_mpki_batch` as a
        one-lane batch (bit-identical MPKI, no timing model) and return a
        :class:`~repro.sim.predictor_replay.PredictorReplayResult`.
        Cells whose variant attaches Branch Runahead fall back to the
        full simulator — their mispredict counts depend on DCE timing.
        This is :func:`_execute` on one cell, re-raising its error.
        """
        (result, _), = _execute(
            self, benchmark, [variant],
            instructions or self.config.instructions,
            warmup if warmup is not None else self.config.warmup,
            cache, outputs)
        if isinstance(result, Exception):
            raise result
        return result

    # -- direct entry points (notebook / service callers) ------------------

    def simulate(self, benchmark, cache: bool = True,
                 **kwargs) -> SimulationResult:
        """Cache-sharing :func:`~repro.sim.simulator.simulate` entry.

        ``benchmark`` is a registered name or a ``Program``; region
        bounds default to the session config and the session's trace
        cache is always attached — a notebook or service caller gets the
        same one-emulation-per-region behaviour as ``run`` without going
        through variant tokens.  Component kwargs (``predictor``,
        ``br_config``) pass through; results are memoized in the result
        cache when every kwarg is a plain hashable value (registry-name
        strings, numbers), and computed fresh otherwise (component
        *instances* carry state the cache must not alias, and a
        ``tracer`` must observe a live run).
        """
        name = benchmark if isinstance(benchmark, str) else \
            getattr(benchmark, "name", None)
        program = suite.load(benchmark) if isinstance(benchmark, str) \
            else benchmark
        if kwargs.get("instructions") is None:
            kwargs["instructions"] = self.config.instructions
        if kwargs.get("warmup") is None:
            kwargs["warmup"] = self.config.warmup
        key = None
        if cache and name is not None and all(
                isinstance(value, (str, int, float, bool, type(None)))
                for value in kwargs.values()):
            key = (name, "simulate", tuple(sorted(kwargs.items())))
            cached = self._cache_get(key)
            if cached is not None:
                return cached
        result = simulate(program, trace_cache=self.trace_cache, **kwargs)
        if key is not None:
            self._cache_put(key, result)
        return result

    # -- parallel matrix ---------------------------------------------------

    def run_cells(self, cells: Sequence[Tuple[str, str]],
                  instructions: Optional[int] = None,
                  warmup: Optional[int] = None,
                  jobs: Optional[int] = None,
                  cache: bool = True,
                  outputs: str = "full",
                  journal: Optional[str] = None,
                  progress: Optional[Callable[[dict], None]] = None
                  ) -> List[dict]:
        """Run many ``(benchmark, variant)`` cells, optionally in parallel.

        Returns one dict per cell — ``{"benchmark", "variant", "payload",
        "trace_cache_hit", ...}`` with ``payload =
        SimulationResult.to_dict()`` — in the *input* order regardless of
        worker scheduling, so output is deterministic for any job count.
        ``jobs`` defaults to the session config (explicit argument wins,
        clamped to at least one).  Variants are any tokens; the Figure 13
        override sweeps run through here.

        A *raising* cell never aborts the sweep: its row carries
        ``ok=False`` and a structured ``error`` (exception class,
        message, traceback) with ``payload=None``, and the remaining
        cells still run.  ``journal=PATH`` records the sweep as an
        append-only ``repro-journal-v1`` event stream (see
        :mod:`repro.observe.journal`) — rows are journaled in input order
        as cells finish, not at the barrier; ``progress`` is called with
        a live snapshot dict after every row.

        Execution goes through :class:`~repro.sched.SweepScheduler`:
        each benchmark's cells ride one dispatch unit, so the unit
        emulates the region once and replays it for the benchmark's other
        cells; only a benchmark holding a large share of the matrix
        splits its full-timing cells over several units.  With one job,
        or at most one unit, the units run inline in this session;
        otherwise on a worker pool (fork preferred, spawn fallback).
        When the session has a :attr:`result_store` and ``cache=True``,
        every landed cell is written through to the store and cells that
        already landed there — e.g. from a sweep killed partway — are
        resumed without re-execution (their journal rows carry
        ``result_store_hit``).

        When ``outputs="mpki"``, a benchmark's predictor-only cells stay
        in one unit and replay in one
        :func:`~repro.sim.predictor_replay.replay_mpki_batch` call (one
        region load, one stream pass for all of them) while still
        producing one row per cell, each cached under its own
        :func:`~repro.sched.store.cell_key`.
        """
        instructions = instructions or self.config.instructions
        warmup = warmup if warmup is not None else self.config.warmup
        jobs = max(1, jobs) if jobs is not None else self.config.jobs
        task_config = self.config.replace(
            instructions=instructions, warmup=warmup)

        recorder = None
        if journal is not None or progress is not None:
            from repro.observe.journal import SweepRecorder
            recorder = SweepRecorder(
                journal, config=task_config, cells=cells, jobs=jobs,
                outputs=outputs, sweep_id=uuid.uuid4().hex,
                progress=progress)
        context = SweepContext(
            task_config, cache, outputs,
            sweep_id=recorder.sweep_id if recorder else None,
            # worker manifests are only worth a git subprocess when a
            # journal will actually record them
            announce=journal is not None)
        scheduler = SweepScheduler(
            [(index, benchmark, variant)
             for index, (benchmark, variant) in enumerate(cells)],
            context, _run_unit, lambda unit: _run_unit_in(self, unit),
            jobs=jobs, recorder=recorder,
            store=self.result_store if cache else None)
        try:
            # publish this session so fork workers find it warm (and
            # spawn workers rebuild an equivalent one from the pickled
            # task config); unpublished in the finally so repeated
            # sweeps cannot pin dead sessions for the process lifetime
            _worker_sessions[task_config] = self
            try:
                rows = scheduler.run()
            finally:
                _worker_sessions.pop(task_config, None)
        except BaseException:
            if recorder is not None:
                # leave the journal truncated (no sweep_finished): a
                # killed or crashed sweep reads back as cleanly
                # incomplete, which is what resume will key on
                recorder.close()
            raise
        else:
            if recorder is not None:
                recorder.finish()
        self.last_sweep = scheduler.stats()
        return rows

    def __repr__(self) -> str:
        return (f"Session(config={self.config!r}, "
                f"results={len(self._results)}, "
                f"trace_entries={len(self.trace_cache)})")


# -- worker plumbing -------------------------------------------------------

#: Sessions adopted by worker processes, keyed by their (hashable)
#: RunConfig.  The parent publishes its session here before forking;
#: spawn-start workers populate it lazily from pickled task configs.
_worker_sessions: Dict[RunConfig, Session] = {}


def _session_for_config(config: RunConfig) -> Session:
    """Find or build the session a worker should run a task under."""
    session = _worker_sessions.get(config)
    if session is None:
        session = Session(config)
        _worker_sessions[config] = session
    return session


def _error_info(exc: BaseException) -> dict:
    """A raising cell's structured error."""
    return {"type": type(exc).__name__, "message": str(exc),
            "traceback": "".join(_traceback.format_exception(
                type(exc), exc, exc.__traceback__))}


#: Sweep ids this *process* has already announced a worker manifest for.
#: Fork workers inherit the parent's copy, which never contains their
#: sweep's id (the parent records rows, it never computes them), so each
#: worker announces exactly once per sweep.
_announced_sweeps: set = set()


def _announce(context: SweepContext) -> Optional[dict]:
    """This worker's manifest of the *sweep* config (an adopted parent
    session keeps its own region lengths), once per journaled sweep."""
    if not context.announce or context.sweep_id is None \
            or context.sweep_id in _announced_sweeps:
        return None
    _announced_sweeps.add(context.sweep_id)
    from repro.observe.manifest import run_manifest
    return run_manifest(context.config)


def _execute(session: Session, benchmark: str, variants: Sequence[str],
             instructions: int, warmup: int, cache: bool, outputs: str
             ) -> List[Tuple[object, dict]]:
    """Run one benchmark's cells in ``session``: the one place a cell
    result is computed, for :meth:`Session.run` and every sweep unit.

    The result LRU serves hits under each cell's
    :func:`~repro.sched.store.cell_key` (``cache=False``: no lookup, no
    store).  The mpki-mode cells (predictor-only variants under
    ``outputs="mpki"``) replay in one
    :func:`~repro.sim.predictor_replay.replay_mpki_batch` call at the
    position of the first of them, even a group of one; every other miss
    runs alone through :func:`~repro.sim.simulator.simulate`.

    Returns ``(result, facts)`` per cell: ``result`` is the live result
    or the exception the cell raised (a variant that fails to resolve
    errors alone, a failing engine call errors every miss it served), and
    ``facts`` are the host keywords of :func:`~repro.sched.cell_row`.  A
    replay group's wall time splits evenly over its members
    (``batch_size`` marks the group), and its peak-RSS delta, a
    process-wide measurement, goes to the first member only.
    """
    keys = [cell_key(benchmark, variant, instructions, warmup, outputs)
            for variant in variants]
    group = [position for position, key in enumerate(keys)
             if key[-1] == "mpki"]
    trace_cache = session.trace_cache
    outcomes: Dict[int, Tuple[object, dict]] = {}
    for position, key in enumerate(keys):
        if position in outcomes:
            continue
        replay = key[-1] == "mpki"
        members = group if replay else [position]
        hits_before = trace_cache.hits
        rss_before = peak_rss_kb()
        started_at = time.time()
        tick = time.perf_counter()
        results: Dict[int, object] = {}
        cached = set()
        misses: List[Tuple[int, dict]] = []
        for member in members:
            hit = session._cache_get(keys[member]) if cache else None
            if hit is not None:
                results[member] = hit
                cached.add(member)
                continue
            try:
                misses.append((member, variant_kwargs(variants[member])))
            except Exception as exc:
                results[member] = exc
        if misses:
            try:
                program = suite.load(benchmark)
                if replay:
                    # through this module's global, which benchmark
                    # instrumentation rebinds
                    computed = replay_mpki_batch(
                        program,
                        [kwargs["predictor"] for _, kwargs in misses],
                        instructions=instructions, warmup=warmup,
                        trace_cache=trace_cache)
                else:
                    computed = [simulate(
                        program, instructions=instructions, warmup=warmup,
                        trace_cache=trace_cache, **misses[0][1])]
            except Exception as exc:
                computed = [exc] * len(misses)
            for (member, _), result in zip(misses, computed):
                results[member] = result
                if cache and not isinstance(result, Exception):
                    session._cache_put(keys[member], result)
        wall = (time.perf_counter() - tick) / len(members)
        rss_after = peak_rss_kb()
        rss_delta = None if None in (rss_before, rss_after) \
            else rss_after - rss_before
        trace_hit = trace_cache.hits > hits_before
        for order, member in enumerate(members):
            outcomes[member] = results[member], dict(
                started_at=started_at, wall_seconds=wall,
                peak_rss_kb_delta=rss_delta if order == 0 else None,
                trace_cache_hit=trace_hit and member not in cached,
                result_cache_hit=member in cached,
                batch_size=len(members) if replay else None)
    return [outcomes[position] for position in range(len(keys))]


def _run_unit_in(session: Session, unit: Tuple[SweepContext, List[Cell]]
                 ) -> List[List[dict]]:
    """Run one dispatch unit's cells in ``session``; one row list each.

    A unit holds one benchmark's cells (see
    :func:`~repro.sched.build_units`); they run through
    :func:`_execute`.  A raising cell becomes a structured error row
    instead of propagating — one bad cell must not abort a pool of good
    ones.  The first row of a worker's first unit per journaled sweep
    ships the worker's own :func:`~repro.observe.manifest.run_manifest`
    back.
    """
    context, cells = unit
    config = context.config
    outcomes = _execute(session, cells[0][1],
                        [variant for _, _, variant in cells],
                        config.instructions, config.warmup,
                        context.cache, context.outputs)
    rows = []
    for (index, benchmark, variant), (result, facts) in zip(cells,
                                                            outcomes):
        failed = isinstance(result, Exception)
        rows.append([cell_row(
            benchmark, variant, index,
            payload=None if failed else result.to_dict(),
            error=_error_info(result) if failed else None, **facts)])
    manifest = _announce(context)  # after the cells' peak-RSS deltas
    if manifest is not None:
        rows[0][0]["worker"]["manifest"] = manifest
    return rows


def _run_unit(unit: Tuple[SweepContext, List[Cell]]) -> List[List[dict]]:
    """Pool entry for a scheduler dispatch unit ``(context, cells)``.

    Module-level so fork *and* spawn pools can pickle it.  Resolving the
    context's ``RunConfig`` through :func:`_session_for_config` gives
    spawn-start workers the exact parent configuration and fork-start
    workers their inherited warm session; the unit then runs through
    :func:`_run_unit_in`, the same runner an inline sweep uses.
    """
    return _run_unit_in(_session_for_config(unit[0].config), unit)
