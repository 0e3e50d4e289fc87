"""Regression observatory (``repro.observe``).

The paper's headline claims are *deltas* — MPKI and IPC improvements of
Branch Runahead over a TAGE-class baseline — so the reproduction is only
trustworthy while those deltas stay pinned as the harness keeps getting
rewritten.  This package is the per-benchmark regression observatory
(how fast the simulator runs is ``perfbench/``'s job, not this one's):

* :mod:`repro.observe.manifest` — run manifests: resolved
  :class:`~repro.config.RunConfig` fingerprint + provenance, git sha,
  interpreter/platform, peak RSS.  Every baseline and sweep journal is
  stamped with one, so a number can always be traced back to the exact
  configuration and host that produced it.
* :mod:`repro.observe.baseline` — ``repro baseline record`` writes one
  committed JSON baseline per benchmark (MPKI, IPC, chain coverage, key
  ``StatRegistry`` counters, payload digest per variant);
  ``repro baseline check`` re-runs and diffs every one of them exactly.
* :mod:`repro.observe.journal` — the sweep flight recorder: an
  append-only ``repro-journal-v1`` JSONL event stream written live as a
  parallel ``run_cells`` sweep lands rows (the sweep's manifest and cell
  plan, per-cell wall/RSS/cache/digest facts and host phase seconds,
  structured failures), tolerant of truncation by a killed sweep.
* :mod:`repro.observe.sweep_report` — ``repro sweep report``/``watch``
  merge a journal into a ``repro-sweep-report-v2``: per-worker
  aggregates, load imbalance, slowest cells with their dominant host
  phase, per-phase host totals, failure digest.
"""

from repro.observe.manifest import (  # noqa: F401
    MANIFEST_SCHEMA,
    run_manifest,
)
from repro.observe.baseline import (  # noqa: F401
    BASELINE_DIR,
    BASELINE_SCHEMA,
    CHECK_SCHEMA,
    check_baselines,
    format_check_report,
    github_annotations,
    record_baselines,
)
from repro.observe.journal import (  # noqa: F401
    JOURNAL_SCHEMA,
    SweepRecorder,
    format_progress,
    read_journal,
)
from repro.observe.sweep_report import (  # noqa: F401
    SWEEP_REPORT_SCHEMA,
    build_sweep_report,
    format_sweep_report,
    journal_snapshot,
)
