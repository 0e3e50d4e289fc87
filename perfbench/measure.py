"""Closed-loop measurement of one workload, its digest gate and metrics.

A run repeats *passes* — every operation of the workload once, in a
seed-shuffled order — until ``seconds`` have elapsed, so every run
measures whole passes and the same mix of cells.  With tracing on, each
pass runs twice, untraced then traced, on separate simulator state: the
untraced side gives the end-to-end numbers and the baseline for
``trace.overhead_frac``, the traced side the per-layer numbers.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from perfbench.tracing import OP, Recorder, instrument

#: End-to-end metrics (measured with tracing off) and their units.
END_TO_END = {
    "sim_kips": "kinst/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Per-layer metrics (traced run) and their units.  Counts and seconds
#: are per traced operation; rates and fractions are over the whole run.
PER_LAYER = {
    "setup.import_s": "s",
    "setup.program_build_s": "s",
    "setup.backend_warm_s": "s",
    "emulator.uops": "count",
    "emulator.busy_s": "s",
    "emulator.self_s": "s",
    "emulator.uops_per_s": "1/s",
    "trace_cache.hits": "count",
    "trace_cache.misses": "count",
    "trace_cache.record_s": "s",
    "trace_cache.replay_s": "s",
    "trace_cache.spill_write_s": "s",
    "trace_cache.spill_read_s": "s",
    "branch_events.load_s": "s",
    "predictors.calls": "count",
    "predictors.busy_s": "s",
    "predictors.calls_per_s": "1/s",
    "replay.lanes": "count",
    "replay.lanes_deduped": "count",
    "replay.busy_s": "s",
    "replay.self_s": "s",
    "replay.lane_branches_per_s": "1/s",
    "memsys.accesses": "count",
    "memsys.busy_s": "s",
    "memsys.l1d.miss_rate": "frac",
    "memsys.l2.miss_rate": "frac",
    "uarch.uops": "count",
    "uarch.self_s": "s",
    "uarch.uops_per_s": "1/s",
    "uarch.cycles": "count",
    "uarch.rob_stalls": "count",
    "runahead.hook_calls": "count",
    "runahead.hook_s": "s",
    "runahead.useful_frac": "frac",
    "dce.busy_s": "s",
    "dce.uops_executed": "count",
    "sched.cells": "count",
    "sched.cell_wait_s": "s",
    "sched.overhead_s": "s",
    "store.hits": "count",
    "store.misses": "count",
    "store.write_s": "s",
    "store.read_s": "s",
    "trace.overhead_frac": "frac",
    "trace.outside_s": "s",
    "trace.accounted_frac": "frac",
}


@dataclass
class Side:
    """Tallies of one side (untraced or traced) of a run."""

    walls: List[float] = field(default_factory=list)
    instructions: int = 0
    sched_overheads: List[float] = field(default_factory=list)

    def kips(self) -> float:
        wall = sum(self.walls)
        return self.instructions / wall / 1000 if wall > 0 else 0.0


class Checker:
    """Digest gate: committed digests, repeats, and traced vs untraced.

    ``committed`` maps cell keys to payload digests; None skips that
    comparison (the run then only checks its own repeats).
    """

    def __init__(self, committed: Optional[Dict[str, str]]):
        self.committed = committed
        self.attempted = 0
        self.failures: List[str] = []
        self.by_side: Dict[str, Dict[str, str]] = {}

    def check(self, side: str, result) -> None:
        seen = self.by_side.setdefault(side, {})
        untraced = self.by_side.get("untraced", {})
        for key, digest in result.outputs:
            self.attempted += 1
            reason = result.errors.get(key)
            if reason is None and digest is None:
                reason = "no output"
            if reason is None and self.committed is not None:
                expected = self.committed.get(key)
                if expected is None:
                    reason = "no committed digest"
                elif expected != digest:
                    reason = (f"digest {digest[:12]} != committed "
                              f"{expected[:12]}")
            if reason is None and seen.setdefault(key, digest) != digest:
                reason = "digest differs from an earlier run of the cell"
            if reason is None and side != "untraced" \
                    and untraced.get(key, digest) != digest:
                reason = "traced digest differs from the untraced one"
            if reason is not None:
                self.failures.append(f"{side} {key}: {reason}")

    @property
    def failed(self) -> int:
        return len(self.failures)

    def outputs_digest(self) -> str:
        """One digest over every cell digest of the untraced side."""
        lines = "".join(f"{key}={digest}\n" for key, digest in
                        sorted(self.by_side.get("untraced", {}).items()))
        return hashlib.sha256(lines.encode()).hexdigest()

    def trace_digests_match(self) -> bool:
        untraced = self.by_side.get("untraced", {})
        return all(untraced.get(key) == digest for key, digest in
                   self.by_side.get("traced", {}).items())


@dataclass
class Measurement:
    workload: str
    seed: int
    passes: int
    elapsed: float
    sides: Dict[str, Side]
    checker: Checker
    recorder: Optional[Recorder]
    model_error: Dict[str, float]


def measure(workload, seed: int, seconds: float, trace: bool,
            committed: Optional[Dict[str, str]]) -> Measurement:
    """Run whole passes of ``workload`` until ``seconds`` have elapsed."""
    plan = workload.plan(seed)
    checker = Checker(committed)
    names = ("untraced", "traced") if trace else ("untraced",)
    sides = {name: Side() for name in names}
    states = {name: workload.new_state() for name in names}
    recorder = Recorder() if trace else None
    first_payloads: Dict[str, dict] = {}
    passes = 0

    def run_pass(name: str, ops: list) -> None:
        side = sides[name]
        traced = recorder if name == "traced" else None
        for op in ops:
            result = workload.run_op(states[name], op, traced)
            side.walls.append(result.wall)
            side.instructions += result.instructions
            side.sched_overheads.append(result.sched_overhead)
            checker.check(name, result)
            if passes == 0 and traced is None:
                first_payloads.update(result.payloads)

    # survivors of set-up are not rescanned by every collection
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    try:
        while True:
            ops = plan.next_pass()
            run_pass("untraced", ops)
            if trace:
                with instrument(recorder):
                    run_pass("traced", ops)
            passes += 1
            if time.perf_counter() - start >= seconds:
                break
    finally:
        gc.unfreeze()
    return Measurement(workload.name, seed, passes,
                       time.perf_counter() - start, sides, checker,
                       recorder, workload.model_error(first_payloads))


#: ``op_s_tail`` is this percentile of the operation latencies.
TAIL_PERCENTILE = 80


def tail_latency(values: List[float]) -> Tuple[float, float, int]:
    """(value, percentile, samples beyond) at ``TAIL_PERCENTILE``.

    A fixed percentile, interpolated between samples, so the value does
    not jump when a run holds one operation more or less.  Runs are sized
    to hold 35 or more operations, so several samples lie beyond it.
    """
    if len(values) < 2:
        return values[0], 100.0, 0
    value = statistics.quantiles(values, n=100,
                                 method="inclusive")[TAIL_PERCENTILE - 1]
    return (value, float(TAIL_PERCENTILE),
            sum(1 for sample in values if sample > value))


def end_to_end_metrics(run: Measurement, setup_s: float,
                       peak_rss_mb: float) -> Dict[str, float]:
    side = run.sides["untraced"]
    return {
        "sim_kips": side.kips(),
        "op_s_p50": statistics.median(side.walls),
        "op_s_tail": tail_latency(side.walls)[0],
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def layer_metrics(run: Measurement,
                  setup_parts: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from the traced side of ``run``."""
    ops = run.recorder.ops
    per_op = 1.0 / max(1, len(ops))
    spans: Dict[str, List[float]] = {}
    counts: Dict[str, float] = {}
    for op in ops:
        for name, values in op["spans"].items():
            total = spans.setdefault(name, [0, 0.0, 0.0])
            for position, value in enumerate(values):
                total[position] += value
        for name, value in op["counts"].items():
            counts[name] = counts.get(name, 0.0) + value

    def calls(*names):
        return sum(spans.get(name, (0, 0.0, 0.0))[0] for name in names)

    def busy(*names):
        return sum(spans.get(name, (0, 0.0, 0.0))[1] for name in names)

    def own(*names):
        return sum(spans.get(name, (0, 0.0, 0.0))[2] for name in names)

    emulator = ("emulator.stream", "emulator.fast_forward", "emulator.init")
    uops = calls("emulator.stream") + counts.get(
        "emulator.fast_forward_uops", 0.0)
    traced = run.sides["traced"]
    untraced = run.sides["untraced"]
    op_wall = sum(op["wall_s"] for op in ops)
    metrics = {
        **setup_parts,
        "emulator.uops": uops * per_op,
        "emulator.busy_s": busy(*emulator) * per_op,
        "emulator.self_s": own(*emulator) * per_op,
        "emulator.uops_per_s": _ratio(uops, busy(*emulator)),
        "trace_cache.hits": counts.get("trace_cache.hits", 0.0) * per_op,
        "trace_cache.misses":
            counts.get("trace_cache.misses", 0.0) * per_op,
        "trace_cache.record_s": own("trace_cache.record") * per_op,
        "trace_cache.replay_s": own("trace_cache.replay") * per_op,
        "trace_cache.spill_write_s":
            busy("trace_cache.spill_write") * per_op,
        "trace_cache.spill_read_s": busy("trace_cache.spill_read") * per_op,
        "branch_events.load_s": own("branch_events.load") * per_op,
        "predictors.calls": calls("predictors.call") * per_op,
        "predictors.busy_s":
            busy("predictors.call", "predictors.init") * per_op,
        "predictors.calls_per_s": _ratio(calls("predictors.call"),
                                         busy("predictors.call")),
        "replay.lanes": counts.get("replay.lanes", 0.0) * per_op,
        "replay.lanes_deduped":
            counts.get("replay.lanes_deduped", 0.0) * per_op,
        "replay.busy_s": busy("replay.batch") * per_op,
        "replay.self_s": own("replay.batch") * per_op,
        "replay.lane_branches_per_s": _ratio(
            counts.get("replay.lane_branches", 0.0), busy("replay.batch")),
        "memsys.accesses": calls("memsys.access") * per_op,
        "memsys.busy_s": busy("memsys.access", "memsys.init") * per_op,
        "memsys.l1d.miss_rate": _ratio(
            counts.get("memsys.l1d.misses", 0.0),
            counts.get("memsys.l1d.accesses", 0.0)),
        "memsys.l2.miss_rate": _ratio(
            counts.get("memsys.l2.misses", 0.0),
            counts.get("memsys.l2.accesses", 0.0)),
        "uarch.uops": counts.get("uarch.uops", 0.0) * per_op,
        "uarch.self_s": own("uarch.run", "uarch.init") * per_op,
        "uarch.uops_per_s": _ratio(counts.get("uarch.uops", 0.0),
                                   own("uarch.run")),
        "uarch.cycles": counts.get("uarch.cycles", 0.0) * per_op,
        "uarch.rob_stalls": counts.get("uarch.rob_stalls", 0.0) * per_op,
        "runahead.hook_calls": calls("runahead.hook") * per_op,
        "runahead.hook_s": busy("runahead.hook") * per_op,
        "runahead.useful_frac": _ratio(
            counts.get("runahead.pred_correct", 0.0),
            counts.get("runahead.pred_total", 0.0)),
        "dce.busy_s": counts.get("dce.busy_s", 0.0) * per_op,
        "dce.uops_executed": counts.get("dce.uops_executed", 0.0) * per_op,
        "sched.cells": counts.get("sched.cells", 0.0) * per_op,
        "sched.cell_wait_s": counts.get("sched.cell_wait_s", 0.0) * per_op,
        "sched.overhead_s": (statistics.mean(traced.sched_overheads)
                             if traced.sched_overheads else 0.0),
        "store.hits": counts.get("store.hits", 0.0) * per_op,
        "store.misses": counts.get("store.misses", 0.0) * per_op,
        "store.write_s": busy("store.write") * per_op,
        "store.read_s": busy("store.read") * per_op,
        "trace.overhead_frac": 1.0 - _ratio(traced.kips(), untraced.kips()),
        "trace.outside_s": own(OP) * per_op,
        "trace.accounted_frac": 1.0 - _ratio(own(OP), op_wall),
    }
    return {name: metrics[name] for name in PER_LAYER}
