"""Figure 12: breakdown of predictions supplied by the DCE.

Per benchmark, every covered-branch prediction is classified as inactive
(no chain had been activated), late (active but not computed in time),
throttled, incorrect, or correct.  Paper shape: used predictions are very
accurate (correct >> incorrect); late is the largest category besides
correct; timeliness is the technique's hardest problem.
"""

from conftest import ALL_BENCHMARKS, print_header, print_series, run_once

from repro.sim.results import arithmetic_mean

CATEGORIES = ["inactive", "late", "throttled", "incorrect", "correct"]


def test_fig12_prediction_breakdown(benchmark, shared_session):
    def experiment():
        rows = []
        for name in ALL_BENCHMARKS:
            result = shared_session.run(name, "mini")
            breakdown = result.runahead.stats.breakdown()
            rows.append((name, {category: 100 * breakdown[category]
                                for category in CATEGORIES}))
        return rows

    rows = run_once(benchmark, experiment)
    means = {category: arithmetic_mean(values[category]
                                       for _, values in rows)
             for category in CATEGORIES}
    print_header("Figure 12: DCE prediction breakdown (%)")
    print_series(rows + [("mean", means)], CATEGORIES)

    # every benchmark's categories sum to 100 (or 0 when uncovered)
    for name, values in rows:
        total = sum(values.values())
        assert total == 0 or abs(total - 100) < 1e-6, name
    # used predictions are overwhelmingly correct
    assert means["correct"] > 4 * means["incorrect"]
    # timeliness is the dominant loss: late is the biggest non-correct bin
    assert means["late"] >= max(means["inactive"], means["throttled"],
                                means["incorrect"])
    assert means["correct"] > 20
