"""Figure 2: average length of dependence chains.

The paper's claim: dependence chains average fewer than 8 micro-ops
(maximum 16), which is what makes a small dedicated engine sufficient.
Reported as the dynamic (execution-weighted) average over the Mini run,
plus the static average of the installed chains.
"""

from conftest import ALL_BENCHMARKS, print_header, print_series, run_once

from repro.sim.results import arithmetic_mean


def test_fig02_average_chain_length(benchmark, shared_session):
    def experiment():
        rows = []
        for name in ALL_BENCHMARKS:
            result = shared_session.run(name, "mini")
            dce = result.runahead.dce.stats
            chains = result.runahead.chain_cache.chains()
            static = arithmetic_mean([c.length for c in chains]) \
                if chains else 0.0
            rows.append((name, {
                "dynamic": dce.dynamic_average_chain_length(),
                "static": static,
                "installed": float(len(chains)),
            }))
        return rows

    rows = run_once(benchmark, experiment)
    dynamic_values = [v["dynamic"] for _, v in rows if v["installed"]]
    mean_row = ("mean", {
        "dynamic": arithmetic_mean(dynamic_values),
        "static": arithmetic_mean(
            [v["static"] for _, v in rows if v["installed"]]),
        "installed": arithmetic_mean([v["installed"] for _, v in rows]),
    })
    print_header("Figure 2: Average dependence chain length (micro-ops)")
    print_series(rows + [mean_row], ["dynamic", "static", "installed"])

    # paper: all chains <= 16 uops, average < 8
    assert mean_row[1]["dynamic"] < 8.0
    for name, values in rows:
        if values["installed"]:
            assert values["dynamic"] <= 16.0, name
