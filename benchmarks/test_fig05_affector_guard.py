"""Figure 5: fraction of dependence chains impacted by affectors/guards.

The paper shows that a large share of chains have affector or guard
dependences, which is why the merge-point predictor matters.  We report,
per benchmark: the share of *installed* chains whose extraction terminated
at an affector/guard branch, and the share of hard branches with a
non-empty affector/guard list in the HBT.
"""

from conftest import ALL_BENCHMARKS, print_header, print_series, run_once

from repro.sim.results import arithmetic_mean


def test_fig05_chains_with_affectors_or_guards(benchmark, shared_session):
    def experiment():
        rows = []
        for name in ALL_BENCHMARKS:
            result = shared_session.run(name, "mini")
            system = result.runahead
            chains = system.chain_cache.chains()
            if chains:
                impacted = 100.0 * sum(c.has_affector_or_guard
                                       for c in chains) / len(chains)
            else:
                impacted = 0.0
            hard_with_agl = [entry for entry in system.hbt.entries.values()
                             if entry.agl]
            rows.append((name, {
                "chains w/ AG %": impacted,
                "AGL branches": float(len(hard_with_agl)),
            }))
        return rows

    rows = run_once(benchmark, experiment)
    mean_row = ("mean", {
        "chains w/ AG %": arithmetic_mean(
            v["chains w/ AG %"] for _, v in rows),
        "AGL branches": arithmetic_mean(
            v["AGL branches"] for _, v in rows),
    })
    print_header("Figure 5: Dependence chains with affectors or guards")
    print_series(rows + [mean_row], ["chains w/ AG %", "AGL branches"])

    # a meaningful fraction of chains must be AG-impacted somewhere, and the
    # HBT must actually have learned AG relations
    assert mean_row[1]["chains w/ AG %"] > 10
    assert any(v["AGL branches"] > 0 for _, v in rows)
