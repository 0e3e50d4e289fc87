"""Figure 11 (bottom): chain initiation methods (§4.1).

MPKI improvement of Mini Branch Runahead under the three initiation
policies.  Paper shape: Predictive >= Independent-early >= Non-speculative,
because earlier initiation buys chain-level parallelism and therefore
timeliness.
"""

from conftest import ALL_BENCHMARKS, print_header, print_series, run_once

from repro.sim.results import arithmetic_mean, mpki_improvement

VARIANTS = [("mini-nonspec", "Non-spec"),
            ("mini-indep", "Indep-early"),
            ("mini", "Predictive")]


def test_fig11_bottom_initiation_methods(benchmark, shared_session):
    def experiment():
        rows = []
        for name in ALL_BENCHMARKS:
            base = shared_session.run(name, "tage64")
            values = {}
            for variant, label in VARIANTS:
                result = shared_session.run(name, variant)
                values[label] = mpki_improvement(base.mpki, result.mpki)
            rows.append((name, values))
        return rows

    rows = run_once(benchmark, experiment)
    labels = [label for _, label in VARIANTS]
    means = {label: arithmetic_mean(values[label] for _, values in rows)
             for label in labels}
    print_header("Figure 11 (bottom): MPKI improvement (%) per initiation "
                 "method")
    print_series(rows + [("mean", means)], labels)

    # ordering with a small tolerance (the methods only differ in timing)
    assert means["Predictive"] >= means["Non-spec"] - 2
    assert means["Indep-early"] >= means["Non-spec"] - 2
    assert means["Predictive"] >= means["Indep-early"] - 2
    # all three must still provide a substantial benefit (non-speculative
    # loses the most timeliness, so its floor is lower)
    assert means["Non-spec"] > 8
    assert means["Indep-early"] > 15
    assert means["Predictive"] > 15
