"""Related-work comparison (§6): general chains vs single-load chains.

Gupta et al. [14] pre-compute only branches whose chain contains a single
load with a predictable address; the paper argues Branch Runahead "is a
more general technique that is able to capture more benefit".  Restricting
chain extraction to one load reproduces the comparison: multi-load
branches (pointer indirection, two-table checks) lose coverage.
"""

from conftest import print_header, print_series, run_once

from repro.sim.results import arithmetic_mean, mpki_improvement
from repro.sim.variants import override_variant

#: Benchmarks whose hard branches need >1 load in the slice.
MULTI_LOAD_BENCHMARKS = ["mcf_17", "xz_17", "leela_17", "sssp", "bc"]


def test_related_work_single_load_chains(benchmark, shared_session):
    def experiment():
        rows = []
        for name in MULTI_LOAD_BENCHMARKS:
            base = shared_session.run(name, "tage64")
            general = shared_session.run(name, "mini")
            single = shared_session.run(name, override_variant(
                "mini", max_chain_loads=1))
            rows.append((name, {
                "general": mpki_improvement(base.mpki, general.mpki),
                "single-load": mpki_improvement(base.mpki, single.mpki),
            }))
        return rows

    rows = run_once(benchmark, experiment)
    means = {column: arithmetic_mean(values[column] for _, values in rows)
             for column in ("general", "single-load")}
    print_header("Related work (§6): general dependence chains vs "
                 "single-load chains (Gupta et al. [14])")
    print_series(rows + [("mean", means)], ["general", "single-load"])
    assert means["general"] > means["single-load"] + 5
