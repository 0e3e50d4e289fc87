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

Worker processes: each parallel task pickles the parent's ``RunConfig``;
the worker resolves it to a session via :func:`_session_for_config`, so a
spawn-start worker reconstructs the *exact* parent configuration instead
of re-deriving one from inherited environment variables, while a
fork-start worker reuses the inherited warm session (trace cache
included) when the config matches.
"""

from __future__ import annotations

import os
import time
import traceback as _traceback
import uuid
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import RunConfig, current_config
from repro.sched import ResultStore, SweepScheduler, cell_key, cell_row
from repro.sim.predictor_replay import replay_mpki, replay_mpki_batch
from repro.sim.results import SimulationResult
from repro.sim.simulator import simulate
from repro.sim.trace_cache import TraceCache
from repro.sim.variants import is_predictor_only, variant_kwargs
from repro.workloads import suite


class Session:
    """One experiment context: a config plus the caches it governs."""

    def __init__(self, config: Optional[RunConfig] = None):
        if config is None:
            config = current_config()
        self.config = config.validate()
        #: Shared committed-trace cache: one functional emulation per
        #: benchmark region, replayed by every variant of this session.
        self.trace_cache = TraceCache(capacity=config.trace_cache_size,
                                      disk_dir=config.trace_cache_dir)
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
        while len(self._results) > self.config.result_cache_size:
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
        are wanted: predictor-only cells then take the
        :func:`~repro.sim.predictor_replay.replay_mpki` fast path
        (bit-identical MPKI, no timing model) and return a
        :class:`~repro.sim.predictor_replay.PredictorReplayResult`.
        Cells whose variant attaches Branch Runahead fall back to the
        full simulator — their mispredict counts depend on DCE timing.
        """
        instructions = instructions or self.config.instructions
        warmup = warmup if warmup is not None else self.config.warmup
        key = cell_key(benchmark, variant, instructions, warmup, outputs)
        if cache:
            cached = self._cache_get(key)
            if cached is not None:
                return cached
        kwargs = variant_kwargs(variant)
        program = suite.load(benchmark)
        if key[-1] == "mpki":
            result = replay_mpki(program, kwargs["predictor"],
                                 instructions=instructions, warmup=warmup,
                                 trace_cache=self.trace_cache)
        else:
            result = simulate(program, instructions=instructions,
                              warmup=warmup, trace_cache=self.trace_cache,
                              **kwargs)
        if cache:
            self._cache_put(key, result)
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
        :mod:`repro.observe.journal`) — rows are journaled in plan order
        as cells finish, not at the barrier; ``progress`` is called with
        a live snapshot dict after every row.

        Execution goes through :class:`~repro.sched.SweepScheduler`.
        With one job, or at most one task to run, tasks run inline in
        this session one at a time.  Otherwise each benchmark's tasks
        ride one dispatch unit on a worker pool (fork preferred, spawn
        fallback), so a worker emulates the region once and replays it
        for the benchmark's other cells; only a benchmark holding a
        large share of the matrix splits over several workers.  When the
        session has a :attr:`result_store` and ``cache=True``, every
        landed cell is written through to the store and cells that
        already landed there — e.g. from a sweep killed partway — are
        resumed without re-execution (their journal rows carry
        ``result_store_hit``).

        When ``outputs="mpki"``, groups of two or more predictor-only
        cells sharing a benchmark collapse into one batched
        :func:`~repro.sim.predictor_replay.replay_mpki_batch` call (one
        region load, one stream pass for the whole group) while still
        producing one row per cell with scalar-identical payloads and
        result-cache keys.  Per-cell profiling (``REPRO_PROFILE``)
        disables batching automatically since a fused group's cells
        cannot be attributed individually.
        """
        instructions = instructions or self.config.instructions
        warmup = warmup if warmup is not None else self.config.warmup
        jobs = max(1, jobs) if jobs is not None else self.config.jobs
        task_config = self.config.replace(
            instructions=instructions, warmup=warmup)

        recorder = None
        profile_mode = None
        if journal is not None or progress is not None:
            from repro.observe.journal import PROFILE_ENV, SweepRecorder
            if journal is not None:
                profile_mode = os.environ.get(PROFILE_ENV) or None
            jobs_effective = min(jobs, len(cells)) if cells else jobs
            recorder = SweepRecorder(
                journal, config=task_config, cells=cells,
                jobs=jobs_effective, outputs=outputs,
                sweep_id=uuid.uuid4().hex, profile=profile_mode,
                progress=progress)
        meta = {
            "sweep_id": recorder.sweep_id if recorder else None,
            # worker manifests are only worth a git subprocess when a
            # journal will actually record them
            "announce": journal is not None,
            "profile": recorder.profile if recorder else None,
            "profile_dir": recorder.profile_dir if recorder else None,
        }
        batching = (outputs == "mpki" and len(cells) > 1
                    and profile_mode is None)
        groups: Dict[str, List[Tuple[str, int]]] = {}
        if batching:
            for index, (benchmark, variant) in enumerate(cells):
                if is_predictor_only(variant):
                    groups.setdefault(benchmark, []).append(
                        (variant, index))
            groups = {benchmark: members
                      for benchmark, members in groups.items()
                      if len(members) >= 2}
        tasks: List[Tuple] = []
        emitted: set = set()
        for index, (benchmark, variant) in enumerate(cells):
            members = groups.get(benchmark)
            if members is None or not is_predictor_only(variant):
                tasks.append((task_config, benchmark, variant,
                              instructions, warmup, cache, outputs,
                              {**meta, "index": index}))
            elif benchmark not in emitted:
                # the whole group runs at the position of its first
                # member; rows are re-sorted to input order at the end
                emitted.add(benchmark)
                tasks.append((task_config, benchmark, tuple(members),
                              instructions, warmup, cache, outputs,
                              {**meta, "index": members[0][1]}))
        scheduler = SweepScheduler(
            tasks, task_config, _run_unit,
            lambda task: _run_task_in(self, task),
            jobs=jobs, recorder=recorder,
            store=self.result_store if cache else None,
            outputs=outputs)
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
        # batch grouping runs cells out of plan sequence; the return
        # contract is input order
        rows.sort(key=lambda row: row["index"])
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


def _peak_rss_kb() -> Optional[int]:
    """Local peak-RSS probe (duplicated from repro.observe.manifest: this
    module must stay importable without triggering the observe package,
    which imports Session back)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return None
    import sys
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - bytes on macOS
        peak //= 1024
    return int(peak)


def _rss_delta(before: Optional[int]) -> Optional[int]:
    after = _peak_rss_kb()
    return after - before if after is not None and before is not None \
        else None


def _error_info(exc: Exception) -> dict:
    """A raising cell's structured error (call inside its ``except``)."""
    return {"type": type(exc).__name__, "message": str(exc),
            "traceback": _traceback.format_exc()}


#: Sweep ids this *process* has already announced a worker manifest for.
#: Fork workers inherit the parent's copy, which never contains their
#: sweep's id (the parent records rows, it never computes them), so each
#: worker announces exactly once per sweep.
_announced_sweeps: set = set()


def _announce(meta: dict, config: RunConfig) -> Optional[dict]:
    """This worker's manifest of the *task* config (an adopted parent
    session keeps its own region lengths), once per journaled sweep."""
    sweep_id = meta.get("sweep_id")
    if not meta.get("announce") or sweep_id is None \
            or sweep_id in _announced_sweeps:
        return None
    _announced_sweeps.add(sweep_id)
    from repro.observe.manifest import run_manifest
    return run_manifest(config)


def _run_cell_in(session: Session, task: Tuple) -> dict:
    """Run one cell inside ``session`` and flatten it to a picklable dict.

    The row carries the cell's payload (``SimulationResult.to_dict()``,
    stats included).  A raising cell is converted into a structured
    error row (``ok=False``, ``payload=None``, ``error={type, message,
    traceback}``) instead of propagating — one bad cell must not abort a
    pool of good ones.

    The optional eighth task element is flight-recorder metadata
    (``index``, ``sweep_id``, ``announce``, ``profile``/``profile_dir``):
    cells measure their own wall seconds and peak-RSS delta, the first
    cell per worker per sweep ships the worker's own
    :func:`~repro.observe.manifest.run_manifest` back on the row, and
    ``REPRO_PROFILE=cprofile`` dumps per-cell pstats beside the journal.
    """
    (config, benchmark, variant, instructions, warmup, use_result_cache,
     outputs) = task[:7]
    meta = task[7] if len(task) > 7 else {}
    trace_cache = session.trace_cache
    hits_before = trace_cache.hits
    result_hits_before = session.result_cache_hits
    rss_before = _peak_rss_kb()
    started_at = time.time()
    tick = time.perf_counter()
    profiler = None
    if meta.get("profile") == "cprofile" and meta.get("profile_dir"):
        import cProfile
        profiler = cProfile.Profile()
    payload = error = None
    try:
        if profiler is not None:
            profiler.enable()
        try:
            result = session.run(benchmark, variant,
                                 instructions=instructions,
                                 warmup=warmup, cache=use_result_cache,
                                 outputs=outputs)
        finally:
            if profiler is not None:
                profiler.disable()
        payload = result.to_dict()
    except Exception as exc:
        error = _error_info(exc)
    wall = time.perf_counter() - tick
    if profiler is not None:
        try:
            profiler.dump_stats(os.path.join(
                meta["profile_dir"],
                f"cell-{meta.get('index', 0):04d}.pstats"))
        except OSError:  # profiling is best-effort forensics
            pass
    return cell_row(
        benchmark, variant, meta.get("index"), payload=payload,
        error=error, started_at=started_at, wall_seconds=wall,
        peak_rss_kb_delta=_rss_delta(rss_before),  # before the manifest
        trace_cache_hit=trace_cache.hits > hits_before,
        result_cache_hit=session.result_cache_hits > result_hits_before,
        manifest=_announce(meta, config))


def _run_batch_in(session: Session, task: Tuple) -> List[dict]:
    """Run one batched group of predictor-only MPKI cells; one row each.

    The task's variant slot holds ``((variant, index), ...)`` instead of
    a single variant string.  Cached members are served under their
    :func:`~repro.sched.store.cell_key`; the misses replay together via
    :func:`~repro.sim.predictor_replay.replay_mpki_batch` and are cached
    individually, so a later scalar ``run(..., outputs="mpki")`` of any
    member hits.  Row shape mirrors :func:`_run_cell_in` member for
    member — the batch's wall time is attributed evenly across members
    (``cell.batch_size`` marks the fusion), the peak-RSS delta lands on
    the first row only (it is a process-wide measurement), and a member
    whose variant fails to resolve errors alone while a failure of the
    shared replay errors every non-cached member.
    """
    (config, benchmark, members, instructions, warmup, use_result_cache,
     outputs) = task[:7]
    meta = task[7] if len(task) > 7 else {}
    trace_cache = session.trace_cache
    hits_before = trace_cache.hits
    rss_before = _peak_rss_kb()
    started_at = time.time()
    tick = time.perf_counter()
    cached: Dict[int, object] = {}
    computed: Dict[int, object] = {}
    errors: Dict[int, dict] = {}
    lanes: List[Tuple[int, Tuple, object]] = []
    for variant, index in members:
        key = cell_key(benchmark, variant, instructions, warmup, outputs)
        if use_result_cache:
            hit = session._cache_get(key)
            if hit is not None:
                cached[index] = hit
                continue
        try:
            lanes.append((index, key, variant_kwargs(variant)["predictor"]))
        except Exception as exc:
            errors[index] = _error_info(exc)
    if lanes:
        try:
            program = suite.load(benchmark)
            results = replay_mpki_batch(
                program, [predictor for _, _, predictor in lanes],
                instructions=instructions, warmup=warmup,
                trace_cache=trace_cache)
        except Exception as exc:
            error = _error_info(exc)
            for index, _, _ in lanes:
                errors[index] = error
        else:
            for (index, key, _), result in zip(lanes, results):
                computed[index] = result
                if use_result_cache:
                    session._cache_put(key, result)
    wall = time.perf_counter() - tick
    rss_delta = _rss_delta(rss_before)
    group_hit = trace_cache.hits > hits_before
    manifest = _announce(meta, config)
    rows: List[dict] = []
    for position, (variant, index) in enumerate(members):
        error = errors.get(index)
        result = cached.get(index, computed.get(index))
        payload = None
        if error is None and result is not None:
            payload = result.to_dict()
        rows.append(cell_row(
            benchmark, variant, index, payload=payload, error=error,
            started_at=started_at, wall_seconds=wall / len(members),
            peak_rss_kb_delta=rss_delta if position == 0 else None,
            trace_cache_hit=group_hit and index not in cached,
            result_cache_hit=index in cached,
            manifest=manifest if position == 0 else None,
            batch_size=len(members)))
    return rows


def _run_task_in(session: Session, task: Tuple) -> List[dict]:
    """Run one task — a single cell or a batched group — as row dicts."""
    if isinstance(task[2], tuple):
        return _run_batch_in(session, task)
    return [_run_cell_in(session, task)]


def _run_unit(unit: List[Tuple]) -> List[List[dict]]:
    """Worker entry for a scheduler dispatch unit (a list of tasks).

    Module-level so fork *and* spawn pools can pickle it.  Every task's
    first element is the parent's ``RunConfig``; resolving it through
    :func:`_session_for_config` gives spawn-start workers the exact
    parent configuration and fork-start workers their inherited warm
    session.  Returns one row list per task so the scheduler can map
    results back to plan positions.  All tasks of a unit share one
    resolved session, and a unit holds one benchmark's tasks, so its
    first task records the region into this worker's trace cache and the
    rest replay it.
    """
    session = _session_for_config(unit[0][0])
    return [_run_task_in(session, task) for task in unit]
