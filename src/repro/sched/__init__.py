"""Sweep scheduling (``repro.sched``).

The subsystem behind ``run_cells``: a content-addressed result store for
crash-resumable sweeps (:mod:`~repro.sched.store`) and the dispatch loop
that probes it, groups the remaining tasks into benchmark-aligned units
and runs them inline or on a worker pool (:mod:`~repro.sched.scheduler`).
"""

from repro.sched.scheduler import (
    SweepScheduler,
    build_units,
    store_outputs_mode,
)
from repro.sched.store import RESULT_FORMAT_VERSION, ResultStore, result_key

__all__ = [
    "SweepScheduler", "build_units", "store_outputs_mode",
    "RESULT_FORMAT_VERSION", "ResultStore", "result_key",
]
