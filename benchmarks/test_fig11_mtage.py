"""Figure 11 (top): Branch Runahead vs the unlimited history predictor.

MPKI improvement over 64KB TAGE-SC-L for: MTAGE-SC (unlimited storage),
Big Branch Runahead, and the combination.  The paper's shape: MTAGE helps
the SPEC-style workloads but does little for GAP; Big BR wins on average;
the combination improves on both everywhere it matters.
"""

from conftest import ALL_BENCHMARKS, print_header, print_series, run_once

from repro.sim.results import arithmetic_mean, mpki_improvement
from repro.workloads import suite

VARIANTS = ["mtage", "big", "mtage+big"]


def test_fig11_top_mtage_vs_branch_runahead(benchmark, shared_session):
    def experiment():
        rows = []
        for name in ALL_BENCHMARKS:
            base = shared_session.run(name, "tage64")
            values = {
                variant: mpki_improvement(
                    base.mpki, shared_session.run(name, variant).mpki)
                for variant in VARIANTS
            }
            rows.append((name, values))
        return rows

    rows = run_once(benchmark, experiment)
    means = {v: arithmetic_mean(values[v] for _, values in rows)
             for v in VARIANTS}
    print_header("Figure 11 (top): MPKI improvement (%) vs 64KB TAGE-SC-L")
    print_series(rows + [("mean", means)], VARIANTS)

    gap_names = set(suite.names("gap"))
    gap_mtage = arithmetic_mean(values["mtage"] for name, values in rows
                                if name in gap_names)

    # shapes: BR beats unlimited history on average; the combination is at
    # least as good as BR alone; MTAGE is weak on GAP's data-dependent code
    assert means["big"] > means["mtage"] + 10
    assert means["mtage+big"] >= means["big"] - 3
    assert gap_mtage < 15
