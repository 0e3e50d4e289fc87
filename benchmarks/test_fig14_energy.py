"""Figure 14: energy impact of Branch Runahead (lower is better).

Branch Runahead adds structures and executes extra uops, but shorter run
times cut cycle-proportional energy; the paper reports net savings on
average for all three configurations.
"""

from conftest import ALL_BENCHMARKS, print_header, print_series, run_once

from repro.power.energy import energy_change_percent
from repro.sim.results import arithmetic_mean

VARIANTS = ["core_only", "mini", "big"]


def test_fig14_energy_change(benchmark, shared_session):
    def experiment():
        rows = []
        for name in ALL_BENCHMARKS:
            base = shared_session.run(name, "tage64")
            values = {
                variant: energy_change_percent(
                    base, shared_session.run(name, variant))
                for variant in VARIANTS
            }
            rows.append((name, values))
        return rows

    rows = run_once(benchmark, experiment)
    means = {variant: arithmetic_mean(values[variant]
                                      for _, values in rows)
             for variant in VARIANTS}
    print_header("Figure 14: Energy change (%) vs baseline "
                 "(negative = savings)")
    print_series(rows + [("mean", means)], VARIANTS)

    # Branch Runahead saves energy on average (run time dominates)
    assert means["core_only"] < 0
    assert means["mini"] < 0
    # the realistic configurations must not cost more energy than the
    # unlimited one saves time for
    assert means["mini"] < means["big"] + 20
