"""Layered benchmark of the Branch Runahead simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload timing_matrix --seed 1 \\
        --seconds 30 --trace 0

prints every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``) and ends with one JSON line ``{"correct", "attempted",
"failed", "metrics"}``.  ``--out FILE`` also appends the run's record to
a JSON-lines file for ``perfbench/compare.py``.  ``--write-digests``
re-records ``perfbench/digests.json``.  See perfbench/README.md.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGESTS = os.path.join(ROOT, "perfbench", "digests.json")
WORKDIR = os.path.join(ROOT, ".perfbench_work")
#: Set-up is timed this many times per run, in fresh processes.
SETUP_REPEATS = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run record to this file")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up the workload and exit (timed by the "
                             "parent run)")
    parser.add_argument("--write-digests", action="store_true",
                        help="re-record perfbench/digests.json")
    args = parser.parse_args(argv)
    if not args.write_digests and args.workload is None:
        parser.error("--workload is required")
    return args


def hermetic_environment() -> None:
    """Drop ``REPRO_*`` knobs so the caller's shell cannot reshape runs."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]


def set_up(name):
    """Import, build programs, warm the backend; returns (workload, parts)."""
    start = time.perf_counter()
    from perfbench import workloads
    from repro.predictors.batched import warm_backend
    from repro.workloads import suite
    parts = {"setup.import_s": time.perf_counter() - start}
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}")
    os.makedirs(WORKDIR, exist_ok=True)
    workload = workloads.WORKLOADS[name]()
    if hasattr(workload, "workdir"):
        workload.workdir = WORKDIR
    start = time.perf_counter()
    for bench in workload.programs():
        suite.load(bench)
    parts["setup.program_build_s"] = time.perf_counter() - start
    start = time.perf_counter()
    warm_backend()
    workload.warm()
    parts["setup.backend_warm_s"] = time.perf_counter() - start
    return workload, parts


def setup_seconds(name):
    """Median, over fresh processes that only set the workload up, of the
    time each one reports from its start to ready (interpreter start-up
    and teardown left out)."""
    times = []
    for _ in range(SETUP_REPEATS):
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--setup-only"],
            cwd=ROOT, check=True, capture_output=True, text=True,
            timeout=120)
        times.append(float(completed.stdout.split()[-1]))
    return statistics.median(times), times


def peak_rss_mb():
    """Peak RSS of the largest single process, in MiB: this one or a
    reaped pool worker.  Forked workers share the parent's pages, so
    adding the two would count those pages twice."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def load_committed(name):
    with open(DIGESTS) as handle:
        return json.load(handle).get(name, {})


def write_digests():
    from perfbench import workloads
    from perfbench.measure import Checker
    os.makedirs(WORKDIR, exist_ok=True)
    table = {}
    for name, factory in workloads.WORKLOADS.items():
        workload = factory()
        if hasattr(workload, "workdir"):
            workload.workdir = WORKDIR
        checker = Checker(None)
        state = workload.new_state()
        for op in workload.reference_ops():
            checker.check("untraced", workload.run_op(state, op))
        if checker.failures:
            raise SystemExit("cannot record digests:\n"
                             + "\n".join(checker.failures))
        table[name] = dict(sorted(checker.by_side["untraced"].items()))
        print(f"{name}: {len(table[name])} digests")
    with open(DIGESTS, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print("perfbench: simulator sources (src/repro) not found; run "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    hermetic_environment()
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    if args.write_digests:
        write_digests()
        return 0
    workload, setup_parts = set_up(args.workload)
    in_process_setup = time.perf_counter() - PROCESS_START
    if args.setup_only:
        print(repr(in_process_setup))
        return 0

    from perfbench.measure import (END_TO_END, PER_LAYER,
                                   end_to_end_metrics, layer_metrics,
                                   measure, tail_latency)
    run = measure(workload, args.seed, args.seconds, bool(args.trace),
                  load_committed(args.workload))
    rss = peak_rss_mb()

    checker = run.checker
    untraced = run.sides["untraced"]
    _, tail_pct, tail_beyond = tail_latency(untraced.walls)
    print(f"perfbench {run.workload} seed={run.seed} trace={args.trace}: "
          f"{len(untraced.walls)} operations in {run.passes} passes, "
          f"{run.elapsed:.1f} s; closed loop, 1 client")
    print(f"  set-up in this process {in_process_setup:.3f} s: "
          + ", ".join(f"{name} {value:.3f}"
                      for name, value in setup_parts.items()))
    print(f"  op_s_tail is p{tail_pct:.0f}, {tail_beyond} samples beyond "
          f"it, of {len(untraced.walls)}")
    print(f"  failed_frac {checker.failed / max(1, checker.attempted):.4f}"
          f" ({checker.failed}/{checker.attempted} cells)")
    for name, value in sorted(run.model_error.items()):
        print(f"  {name} {value:.3f} (model error, deterministic)")
    print(f"  outputs digest {checker.outputs_digest()}")
    for failure in checker.failures[:20]:
        print(f"  FAILED {failure}")

    correct = checker.failed == 0
    if args.trace:
        metrics = layer_metrics(run, setup_parts)
        units = PER_LAYER
        if not checker.trace_digests_match():
            print("  FAILED traced digests differ from untraced digests")
            correct = False
        os.makedirs(WORKDIR, exist_ok=True)
        spans_path = os.path.join(
            WORKDIR, f"spans-{run.workload}-seed{run.seed}.json")
        run.recorder.write(spans_path)
        print(f"  spans of {len(run.recorder.ops)} traced operations "
              f"written to {os.path.relpath(spans_path, ROOT)}")
    else:
        setup_s, setup_times = setup_seconds(args.workload)
        print(f"  setup_s is the median of {SETUP_REPEATS} fresh-process "
              f"set-ups: " + ", ".join(f"{value:.3f}" for value in
                                       setup_times) + " s")
        metrics = end_to_end_metrics(run, setup_s, rss)
        units = END_TO_END
    for name, value in metrics.items():
        print(f"  {name:<28} {value:.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    if args.out:
        record = {"workload": run.workload, "seed": run.seed,
                  "trace": args.trace, **result,
                  "model_error": run.model_error,
                  "outputs_digest": checker.outputs_digest()}
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
