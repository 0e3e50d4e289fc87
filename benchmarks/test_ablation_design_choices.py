"""Ablations for the design choices the paper argues for.

Two claims get dedicated bench support:

* **§4.4 / contribution list**: "We demonstrate the importance of
  accurately identifying affector and guard dependencies between
  branches."  Turning off merge-point prediction (no AGLs) forces every
  chain to self-terminate, so guarded branches get misaligned,
  frequently-diverging chains.
* **§4.2**: "We experimented with in-order instruction scheduling;
  however, we found that in-order execution was not able to expose enough
  Memory Level Parallelism."  Serializing chain uops delays chain
  completion, pushing predictions into the late category.
"""

from conftest import print_header, print_series, run_once

from repro.sim.results import arithmetic_mean, mpki_improvement
from repro.sim.variants import override_variant

#: Benchmarks with strong guard structure (where AG detection must matter).
GUARD_BENCHMARKS = ["leela_17", "gobmk_06", "xz_17", "sjeng_06", "bfs"]
#: Benchmarks whose chains carry multiple loads (where scheduling matters).
MLP_BENCHMARKS = ["mcf_17", "xz_17", "sssp", "bc", "astar_06"]


def test_ablation_affector_guard_detection(benchmark, shared_session):
    def experiment():
        rows = []
        for name in GUARD_BENCHMARKS:
            base = shared_session.run(name, "tage64")
            full = shared_session.run(name, "mini")
            ablated = shared_session.run(name, override_variant(
                "mini", enable_affector_guard=False))
            rows.append((name, {
                "with AG": mpki_improvement(base.mpki, full.mpki),
                "without AG": mpki_improvement(base.mpki, ablated.mpki),
            }))
        return rows

    rows = run_once(benchmark, experiment)
    means = {column: arithmetic_mean(values[column] for _, values in rows)
             for column in ("with AG", "without AG")}
    print_header("Ablation (§4.4): MPKI improvement with vs without "
                 "affector/guard detection")
    print_series(rows + [("mean", means)], ["with AG", "without AG"])
    assert means["with AG"] > means["without AG"] + 5


def test_ablation_in_order_dce_scheduling(benchmark, shared_session):
    def experiment():
        rows = []
        for name in MLP_BENCHMARKS:
            base = shared_session.run(name, "tage64")
            out_of_order = shared_session.run(name, "mini")
            in_order = shared_session.run(name, override_variant(
                "mini", dce_in_order=True))
            rows.append((name, {
                "OoO DCE": mpki_improvement(base.mpki, out_of_order.mpki),
                "in-order DCE": mpki_improvement(base.mpki, in_order.mpki),
                "late% OoO": 100 * out_of_order.runahead.stats
                .breakdown()["late"],
                "late% in-order": 100 * in_order.runahead.stats
                .breakdown()["late"],
            }))
        return rows

    rows = run_once(benchmark, experiment)
    columns = ["OoO DCE", "in-order DCE", "late% OoO", "late% in-order"]
    means = {column: arithmetic_mean(values[column] for _, values in rows)
             for column in columns}
    print_header("Ablation (§4.2): out-of-order vs in-order chain "
                 "scheduling in the DCE")
    print_series(rows + [("mean", means)], columns)
    # in-order scheduling must not beat dataflow scheduling, and it pushes
    # more predictions late
    assert means["OoO DCE"] >= means["in-order DCE"] - 2
    assert means["late% in-order"] >= means["late% OoO"] - 2
