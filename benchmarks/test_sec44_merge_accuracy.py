"""§4.4 / §1: merge-point predictor accuracy.

The paper claims the WPB-based dynamic merge-point predictor reaches 92%
accuracy where prior code-layout heuristics reach ~78%.  The bench scores
both against the oracle (first wrong-path PC actually re-reached on the
correct path) over all benchmarks.
"""

from conftest import ALL_BENCHMARKS, print_header, print_series, run_once



def test_sec44_merge_point_accuracy(benchmark, shared_session):
    def experiment():
        rows = []
        total = {"dynamic_correct": 0, "dynamic_total": 0,
                 "static_correct": 0, "static_total": 0}
        for name in ALL_BENCHMARKS:
            result = shared_session.run(name, "mini-oracle-merge")
            oracle = result.runahead.oracle
            rows.append((name, {
                "dynamic %": 100 * oracle.dynamic_accuracy(),
                "static %": 100 * oracle.static_accuracy(),
                "resolved": float(oracle.resolved),
            }))
            total["dynamic_correct"] += oracle.dynamic_correct
            total["dynamic_total"] += oracle.dynamic_predictions
            total["static_correct"] += oracle.static_correct
            total["static_total"] += oracle.static_predictions
        return rows, total

    rows, total = run_once(benchmark, experiment)
    dynamic = 100 * total["dynamic_correct"] / max(total["dynamic_total"], 1)
    static = 100 * total["static_correct"] / max(total["static_total"], 1)
    summary = ("overall", {"dynamic %": dynamic, "static %": static,
                           "resolved": float(total["dynamic_total"])})
    print_header("Section 4.4: merge point prediction accuracy "
                 "(dynamic WPB vs static code-layout heuristic)")
    print_series(rows + [summary], ["dynamic %", "static %", "resolved"])

    # paper: 92% dynamic vs 78% static — assert the gap and the level
    assert total["dynamic_total"] > 100  # enough resolved searches
    assert dynamic > 80
    assert dynamic > static + 5
