"""Per-benchmark regression baselines (``repro baseline record/check``).

``record`` runs the benchmark x variant matrix once and writes **one JSON
baseline file per benchmark** under ``baselines/`` — MPKI, IPC, chain
coverage, a whitelist of key ``StatRegistry`` counters, and the
deterministic payload digest per variant, plus a run manifest
(:mod:`repro.observe.manifest`).  The files are committed, so every
future PR diffs against an explicit, reviewable per-benchmark contract
instead of a single whole-suite sha256.

``check`` re-runs the same matrix and compares every metric **exactly**:
the simulator is a pure function of the program and configuration, so
any drift is a behaviour change and fails the check.  Host wall-clock is
not a baseline metric; the perfbench benchmark measures it over repeated
runs.

A baseline recorded under different region parameters is not comparable;
``check`` fails such a benchmark with a single ``region`` violation
instead of drowning the report in spurious metric diffs.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

from repro.config import RunConfig
from repro.observe.manifest import run_manifest
from repro.session import Session
from repro.sim.bench import payload_digest

BASELINE_SCHEMA = "repro-baseline-v1"
CHECK_SCHEMA = "repro-baseline-check-v1"

#: Default committed-baseline directory (repo root relative).
BASELINE_DIR = "baselines"

#: The ``--quick`` matrix, and the default benchmarks and variants of
#: any run that names none.  ``baselines/`` is recorded at this size.
QUICK_BENCHMARKS = ["sjeng_06", "mcf_17"]
QUICK_VARIANTS = ["tage64", "mini", "big"]
QUICK_INSTRUCTIONS = 3_000
QUICK_WARMUP = 1_500

#: Flat ``StatRegistry`` counter names pinned per variant.  Chosen to
#: localize a drift fast: region identity (instructions/cycles), the
#: branch stream (cond_branches), both mispredict attributions, and the
#: Branch Runahead engine's externally-visible work.
KEY_COUNTERS = (
    "core.instructions",
    "core.cycles",
    "core.fetch.cond_branches",
    "core.fetch.mispredicts",
    "predictor.lookups",
    "predictor.mispredicts",
    "runahead.chains_extracted",
    "dce.uops_executed",
    "dce.syncs",
    "dce.chain_cache.installed",
    "dce.chain_cache.covered_branches",
)


# -- stat extraction -------------------------------------------------------

def flatten_stats(stats: dict, prefix: str = "") -> Dict[str, float]:
    """Flatten a nested ``StatRegistry.to_dict`` tree to scalar leaves.

    Histogram leaves (dicts carrying ``count``/``mean``) contribute their
    ``count`` under ``<name>.count``; scope dicts recurse.
    """
    flat: Dict[str, float] = {}
    for name, value in stats.items():
        key = f"{prefix}{name}"
        if isinstance(value, dict):
            if "count" in value and "mean" in value:
                flat[f"{key}.count"] = value["count"]
            else:
                flat.update(flatten_stats(value, prefix=f"{key}."))
        elif isinstance(value, (int, float)) \
                and not isinstance(value, bool):
            flat[key] = value
    return flat


def chain_coverage(flat: Dict[str, float]) -> Optional[float]:
    """Fraction of static conditional branches covered by chains.

    None for predictor-only variants (no Branch Runahead attached, so
    there is no chain cache to measure).
    """
    covered = flat.get("dce.chain_cache.covered_branches")
    static = flat.get("core.branches.static_cond")
    if covered is None or not static:
        return None
    return covered / static


def _variant_entry(payload: dict) -> dict:
    """One variant's pinned metrics from its result payload."""
    flat = flatten_stats(payload.get("stats", {}))
    counters = {name: flat[name] for name in KEY_COUNTERS if name in flat}
    return {
        "mpki": payload["mpki"],
        "ipc": payload["ipc"],
        "chain_coverage": chain_coverage(flat),
        "digest": payload_digest(payload),
        "counters": counters,
    }


# -- matrix execution ------------------------------------------------------

def _run_matrix(benchmarks: Optional[List[str]],
                variants: Optional[List[str]],
                instructions: Optional[int],
                warmup: Optional[int],
                jobs: Optional[int],
                quick: bool,
                session: Optional[Session]
                ) -> Tuple[List[str], List[str], int, int,
                           Dict[str, List[Tuple[str, dict]]], RunConfig]:
    """Run the baseline matrix; returns per-benchmark (variant, payload)s.

    ``quick`` selects the CI smoke matrix (``QUICK_*``) the committed
    baselines were recorded with; explicit arguments override it, and
    the session's config supplies whatever neither sets.  ``Session()``
    is built when the caller supplies none (cells bypass its result
    cache either way — a baseline must price real runs, not cache
    hits).  The returned config is the one the matrix ran under, for
    the manifest.
    """
    if session is None:
        session = Session()
    if quick:
        instructions = instructions or QUICK_INSTRUCTIONS
        warmup = warmup if warmup is not None else QUICK_WARMUP
    config = session.config
    benchmarks = list(benchmarks or QUICK_BENCHMARKS)
    variants = list(variants or QUICK_VARIANTS)
    instructions = instructions or config.instructions
    warmup = warmup if warmup is not None else config.warmup
    jobs = max(1, jobs) if jobs is not None else config.jobs
    cells = [(benchmark, variant) for benchmark in benchmarks
             for variant in variants]
    rows = session.run_cells(cells, instructions=instructions,
                             warmup=warmup, jobs=jobs, cache=False)
    per_benchmark: Dict[str, List[Tuple[str, dict]]] = {
        name: [] for name in benchmarks}
    for row in rows:
        per_benchmark[row["benchmark"]].append(
            (row["variant"], row["payload"]))
    ran = config.replace(instructions=instructions, warmup=warmup,
                         jobs=jobs)
    return benchmarks, variants, instructions, warmup, per_benchmark, ran


def benchmark_document(benchmark: str, instructions: int, warmup: int,
                       variant_payloads: List[Tuple[str, dict]],
                       manifest: dict) -> dict:
    """The committed per-benchmark baseline document."""
    return {
        "schema": BASELINE_SCHEMA,
        "benchmark": benchmark,
        "instructions": instructions,
        "warmup": warmup,
        "variants": {variant: _variant_entry(payload)
                     for variant, payload in variant_payloads},
        "manifest": manifest,
    }


def baseline_path(out_dir: str, benchmark: str) -> str:
    return os.path.join(out_dir, f"{benchmark}.json")


def record_baselines(benchmarks: Optional[List[str]] = None,
                     variants: Optional[List[str]] = None,
                     instructions: Optional[int] = None,
                     warmup: Optional[int] = None,
                     jobs: Optional[int] = None,
                     quick: bool = False,
                     out_dir: str = BASELINE_DIR,
                     session: Optional[Session] = None) -> dict:
    """Run the matrix and write one baseline file per benchmark.

    Returns a summary report (``written`` paths plus the stamped
    manifest).  Files are written with sorted keys and a trailing
    newline, so identical reruns under a fixed config are byte-identical
    up to the ``host`` manifest section.
    """
    (benchmarks, variants, instructions, warmup, per_benchmark,
     ran) = _run_matrix(benchmarks, variants, instructions, warmup,
                        jobs, quick, session)
    os.makedirs(out_dir, exist_ok=True)
    written: List[str] = []
    manifest = run_manifest(ran)
    for benchmark in benchmarks:
        document = benchmark_document(benchmark, instructions, warmup,
                                      per_benchmark[benchmark], manifest)
        path = baseline_path(out_dir, benchmark)
        with open(path, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        written.append(path)
    return {
        "schema": BASELINE_SCHEMA,
        "written": written,
        "benchmarks": benchmarks,
        "variants": variants,
        "instructions": instructions,
        "warmup": warmup,
        "manifest": manifest,
    }


# -- checking --------------------------------------------------------------

def _violation(benchmark: str, variant: Optional[str], metric: str,
               category: str, baseline_value, current_value) -> dict:
    return {
        "benchmark": benchmark,
        "variant": variant,
        "metric": metric,
        "category": category,
        "baseline": baseline_value,
        "current": current_value,
        "severity": "fail",
    }


def _check_benchmark(benchmark: str, document: dict,
                     variant_payloads: List[Tuple[str, dict]],
                     instructions: int, warmup: int) -> List[dict]:
    """Diff one benchmark's rerun against its committed document."""
    findings: List[dict] = []
    if (document.get("instructions"), document.get("warmup")) != \
            (instructions, warmup):
        findings.append(_violation(
            benchmark, None, "region", "region",
            {"instructions": document.get("instructions"),
             "warmup": document.get("warmup")},
            {"instructions": instructions, "warmup": warmup}))
        return findings  # every metric diff would be spurious noise

    recorded = document.get("variants", {})
    for variant, payload in variant_payloads:
        base = recorded.get(variant)
        if base is None:
            findings.append(_violation(benchmark, variant, "variant",
                                       "missing", None, "present"))
            continue
        current = _variant_entry(payload)
        for metric in ("digest", "mpki", "ipc", "chain_coverage"):
            if base.get(metric) != current[metric]:
                findings.append(_violation(
                    benchmark, variant, metric, metric,
                    base.get(metric), current[metric]))
        base_counters = base.get("counters", {})
        for name in sorted(set(base_counters) | set(current["counters"])):
            recorded_value = base_counters.get(name)
            current_value = current["counters"].get(name)
            if recorded_value != current_value:
                findings.append(_violation(
                    benchmark, variant, f"counters.{name}", "counter",
                    recorded_value, current_value))
    return findings


def check_baselines(benchmarks: Optional[List[str]] = None,
                    variants: Optional[List[str]] = None,
                    instructions: Optional[int] = None,
                    warmup: Optional[int] = None,
                    jobs: Optional[int] = None,
                    quick: bool = False,
                    baseline_dir: str = BASELINE_DIR,
                    session: Optional[Session] = None) -> dict:
    """Re-run the matrix and diff against the committed baselines.

    The report's ``ok`` is False iff a violation (or a missing baseline
    file) was found.
    """
    (benchmarks, variants, instructions, warmup, per_benchmark,
     ran) = _run_matrix(benchmarks, variants, instructions, warmup,
                        jobs, quick, session)
    violations: List[dict] = []
    missing: List[str] = []
    checked: List[str] = []
    for benchmark in benchmarks:
        path = baseline_path(baseline_dir, benchmark)
        try:
            with open(path) as handle:
                document = json.load(handle)
        except (OSError, ValueError):
            missing.append(benchmark)
            continue
        checked.append(benchmark)
        violations.extend(_check_benchmark(benchmark, document,
                                           per_benchmark[benchmark],
                                           instructions, warmup))
    return {
        "schema": CHECK_SCHEMA,
        "ok": not violations and not missing,
        "baseline_dir": baseline_dir,
        "benchmarks": benchmarks,
        "variants": variants,
        "instructions": instructions,
        "warmup": warmup,
        "checked": checked,
        "missing_baselines": missing,
        "violations": violations,
        "manifest": run_manifest(ran),
    }


# -- reporting -------------------------------------------------------------

def _describe(finding: dict) -> str:
    where = finding["benchmark"]
    if finding["variant"]:
        where += f"/{finding['variant']}"
    return (f"{where}: {finding['metric']} {finding['baseline']!r} -> "
            f"{finding['current']!r} ({finding['category']})")


def format_check_report(report: dict) -> str:
    """Human-readable ``repro baseline check`` summary."""
    lines = [
        f"baseline check: {len(report['checked'])} benchmark(s) x "
        f"{len(report['variants'])} variant(s), "
        f"{report['instructions']} instructions (+{report['warmup']} "
        f"warmup) vs {report['baseline_dir']}/",
    ]
    for benchmark in report["missing_baselines"]:
        lines.append(f"  MISSING  {benchmark}: no committed baseline "
                     f"(run `repro baseline record`)")
    for finding in report["violations"]:
        lines.append(f"  FAIL     {_describe(finding)}")
    if report["ok"]:
        lines.append("  ok: all metrics within tolerance")
    else:
        lines.append(
            f"  FAILED: {len(report['violations'])} violation(s), "
            f"{len(report['missing_baselines'])} missing baseline(s)")
    return "\n".join(lines)


def github_annotations(report: dict) -> List[str]:
    """``::error`` workflow-command lines for CI logs."""
    annotations: List[str] = []
    for benchmark in report["missing_baselines"]:
        annotations.append(
            f"::error title=Missing baseline::{benchmark} has no "
            f"committed baseline under {report['baseline_dir']}/")
    for finding in report["violations"]:
        path = baseline_path(report["baseline_dir"],
                             finding["benchmark"])
        annotations.append(f"::error file={path},"
                           f"title=Baseline regression::"
                           f"{_describe(finding)}")
    return annotations
