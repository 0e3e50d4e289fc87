"""Tests of the benchmark itself, on tiny regions.

Run from the root of a checkout: ``python -m pytest perfbench/tests -q``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import workloads  # noqa: E402
from perfbench.compare import verdict  # noqa: E402
from perfbench.measure import (END_TO_END, PER_LAYER,  # noqa: E402
                               end_to_end_metrics, layer_metrics, measure,
                               tail_latency)


@pytest.fixture
def tiny(tmp_path):
    """Tiny-region versions of the three workloads."""
    return {
        "timing_matrix": workloads.TimingMatrix(workloads.TimingSpec(
            benchmarks=("sjeng_06", "mcf_17"), variants=("tage64", "mini"),
            instructions=400, warmup=200, starts=(0, 100))),
        "predictor_sweep": workloads.PredictorSweep(workloads.SweepSpec(
            benchmarks=("mcf_17",), instructions=1_500, warmup=500,
            starts=(200,))),
        "resumable_sweep": workloads.ResumableSweep(
            workloads.ResumableSpec(benchmarks=("sjeng_06", "mcf_17"),
                                    instructions=300, warmup=200),
            workdir=str(tmp_path)),
    }


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(tiny, name):
    run = measure(tiny[name], seed=0, seconds=0, trace=False,
                  committed=None)
    assert run.checker.attempted > 0
    assert run.checker.failures == []
    metrics = end_to_end_metrics(run, setup_s=1.0, peak_rss_mb=1.0)
    assert list(metrics) == list(END_TO_END)
    assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_digests_match_untraced(tiny, name):
    run = measure(tiny[name], seed=1, seconds=0, trace=True,
                  committed=None)
    assert run.checker.failures == []
    assert run.checker.trace_digests_match()
    assert run.checker.by_side["traced"] == run.checker.by_side["untraced"]
    metrics = layer_metrics(run, {"setup.import_s": 0.0,
                                  "setup.program_build_s": 0.0,
                                  "setup.backend_warm_s": 0.0})
    assert list(metrics) == list(PER_LAYER)
    assert metrics["trace.accounted_frac"] > 0.95


def test_injected_digest_mismatch_is_a_named_failure(tiny):
    workload = tiny["timing_matrix"]
    reference = measure(workload, seed=2, seconds=0, trace=False,
                        committed=None)
    committed = dict(reference.checker.by_side["untraced"])
    victim = sorted(committed)[0]
    committed[victim] = "0" * 64
    run = measure(workload, seed=2, seconds=0, trace=False,
                  committed=committed)
    assert run.checker.failed == 1
    assert victim in run.checker.failures[0]
    assert run.checker.attempted == reference.checker.attempted


def test_committed_digests_cover_every_seed_choice():
    with open(os.path.join(ROOT, "perfbench", "digests.json")) as handle:
        committed = json.load(handle)
    timing = workloads.TimingMatrix()
    keys = {f"{bench}@{start}/{variant}"
            for bench, start, variant in timing.reference_ops()}
    assert keys == set(committed["timing_matrix"])
    sweep = workloads.PredictorSweep()
    for bench, start, _ in sweep.reference_ops():
        assert f"{bench}@{start}/lane00" in committed["predictor_sweep"]
    resumable = workloads.ResumableSweep()
    assert {f"{bench}/{variant}" for bench, variant in resumable.cells()} \
        == set(committed["resumable_sweep"])


def test_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [entry["name"] for entry in spec["workloads"]] \
        == list(workloads.WORKLOADS)
    assert {entry["name"]: entry["unit"] for entry in spec["end_to_end"]} \
        == END_TO_END
    assert {entry["name"]: entry["unit"] for entry in spec["per_layer"]} \
        == PER_LAYER


@pytest.mark.parametrize("count", [10, 11, 12, 40])
def test_tail_latency_does_not_jump_with_the_sample_count(count):
    values = [float(value) for value in range(1, count + 1)]
    value, percentile, beyond = tail_latency(values)
    assert percentile == 80.0
    assert value == pytest.approx(1 + 0.8 * (count - 1))
    assert beyond == sum(1 for sample in values if sample > value)


def test_compare_verdicts():
    parent = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0]
    faster = [value * 0.8 for value in parent]
    pairs = list(zip(parent, faster))
    assert verdict(parent, faster, pairs, "lower", 0.1)[0] == "improved"
    slower = [value * 1.2 for value in parent]
    pairs = list(zip(parent, slower))
    assert verdict(parent, slower, pairs, "lower", 0.1)[0] == "worse"
    same = list(parent)
    assert verdict(parent, same, list(zip(parent, same)), "lower",
                   0.1)[0] == "no worse"
    few = parent[:9]
    assert verdict(few, [value * 0.5 for value in few],
                   [(value, value * 0.5) for value in few], "lower",
                   0.1)[0] == "unresolved"
    noisy = [5.0, 15.0, 7.0, 13.0, 10.0]
    assert verdict(noisy, noisy, list(zip(noisy, noisy)), "lower",
                   0.1)[0] == "unresolved"


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "timing_matrix",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
