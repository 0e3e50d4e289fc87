"""Figure 1: misprediction rate on the 32 hardest branches per benchmark.

Three bars per benchmark: 64KB TAGE-SC-L, unlimited MTAGE-SC, and
dependence chains.  Paper means: ~11% (TAGE-SC-L), ~9% (MTAGE-SC), ~5%
(chains) — i.e. unlimited history buys little, pre-computation buys a lot.
"""

from conftest import ALL_BENCHMARKS, print_header, print_series, run_once

from repro.sim.results import arithmetic_mean, hard_branch_accuracy


def test_fig01_hard_branch_misprediction_rate(benchmark, shared_session):
    def experiment():
        rows = []
        for name in ALL_BENCHMARKS:
            tage = shared_session.run(name, "tage64")
            mtage = shared_session.run(name, "mtage")
            chains = shared_session.run(name, "big")
            tage_acc, _ = hard_branch_accuracy(tage)
            mtage_acc, _ = hard_branch_accuracy(mtage)
            _, chain_acc = hard_branch_accuracy(chains)
            rows.append((name, {
                "TAGE-SC-L": 100 * (1 - tage_acc),
                "MTAGE-SC": 100 * (1 - mtage_acc),
                "Dep. Chains": 100 * (1 - chain_acc),
            }))
        return rows

    rows = run_once(benchmark, experiment)
    means = {column: arithmetic_mean(values[column] for _, values in rows)
             for column in ("TAGE-SC-L", "MTAGE-SC", "Dep. Chains")}
    rows = rows + [("mean", means)]
    print_header("Figure 1: Misprediction rate (%) on 32 hardest branches")
    print_series(rows, ["TAGE-SC-L", "MTAGE-SC", "Dep. Chains"])

    # Shape assertions: chains beat both history predictors on average,
    # and MTAGE's unlimited storage is only an incremental gain over TAGE.
    assert means["Dep. Chains"] < means["TAGE-SC-L"] * 0.75
    assert means["Dep. Chains"] < means["MTAGE-SC"] * 0.80
    assert means["MTAGE-SC"] > means["TAGE-SC-L"] * 0.5
