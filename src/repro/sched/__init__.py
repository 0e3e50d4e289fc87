"""Sweep scheduling (``repro.sched``).

The subsystem behind ``run_cells``: :func:`~repro.sched.store.cell_key`,
the one identity of a cell result that the session's result cache and
the content-addressed result store for crash-resumable sweeps
(:mod:`~repro.sched.store`) both key on, and the dispatch loop that
probes the store per cell, groups the remaining cells into
benchmark-aligned units, runs them inline or on a worker pool and builds
every sweep row (:mod:`~repro.sched.scheduler`).
"""

from repro.sched.scheduler import SweepContext, SweepScheduler, \
    build_units, cell_row
from repro.sched.store import RESULT_FORMAT_VERSION, ResultStore, cell_key

__all__ = [
    "SweepContext", "SweepScheduler", "build_units", "cell_row",
    "RESULT_FORMAT_VERSION", "ResultStore", "cell_key",
]
