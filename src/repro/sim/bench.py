"""Payload digests and the fixed predictor lane sets benchmarks replay.

:func:`payload_digest` is the identity of a result: a sha256 over the
deterministic part of a cell payload (the wall-clock ``stats.host``
scope excluded), so two runs that simulated the same thing hash the same
on any host.  The committed ``baselines/*.json``, sweep journals,
``repro sweep resume`` and ``perfbench/digests.json`` all pin results by
it.

:func:`tage_batch_predictors` (24 TAGE-SC-L lanes sharing one index
geometry) builds the fixed multi-predictor sweep ``perfbench``'s
``predictor_sweep`` workload runs through the batched TAGE kernel.
"""

from __future__ import annotations

import hashlib
import json

from repro.predictors.loop_predictor import LoopPredictor
from repro.predictors.statistical_corrector import StatisticalCorrector
from repro.predictors.tage import TageConfig
from repro.predictors.tage_scl import TageSCL


def tage_batch_predictors() -> list:
    """Fresh instances of the 24-lane TAGE-SC-L sweep.

    One tage64-sized index geometry, so the lanes land in a single kernel
    group, with counter width, useful width, base table size and loop
    table size varied; the off-by-``index`` reset periods keep every
    lane's dedupe key unique, so all 24 replay for real.
    """
    lanes = []
    for index in range(24):
        config = TageConfig(
            num_tables=12, table_size_log2=11, tag_bits=11,
            counter_bits=(2, 3)[index % 2],
            useful_bits=(1, 2)[(index // 2) % 2],
            min_history=4, max_history=640,
            base_size_log2=12 + (index // 4) % 3,
            useful_reset_period=(1 << 16) + index)
        lanes.append(TageSCL(
            config,
            loop=LoopPredictor(size_log2=5 + index // 12),
            corrector=StatisticalCorrector((3, 5, 10, 21, 42), 10),
            name=f"scl-sweep{index}"))
    return lanes


def strip_host(payload: dict) -> dict:
    """Drop wall-clock-dependent fields; everything left is deterministic."""
    clean = json.loads(json.dumps(payload))
    stats = clean.get("stats")
    if isinstance(stats, dict):
        stats.pop("host", None)
    return clean


def payload_digest(payload: dict) -> str:
    """sha256 over the canonical JSON of the deterministic payload subset."""
    canonical = json.dumps(strip_host(payload), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
