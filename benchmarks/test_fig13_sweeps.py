"""Figure 13: per-parameter sweeps from Mini toward Big.

Each of six structures is swept individually; the series reports mean MPKI
improvement relative to the Mini configuration (positive = better than
Mini).  The paper's findings: window size and chain cache size drive most
of Big's advantage; the other parameters saturate at their Mini values.
Like the paper (footnote 16), the sweeps run on shorter regions and a
benchmark subset.
"""

from conftest import SWEEP_BENCHMARKS, print_header, run_once

from repro.sim import sweeps


def test_fig13_parameter_sweeps(benchmark, shared_session):
    # all six ladders are one run_cells matrix in the figure run's
    # session: the Mini references run once, at any job count
    def experiment():
        return sweeps.sweep_parameters(shared_session, SWEEP_BENCHMARKS)

    series = run_once(benchmark, experiment)
    print_header("Figure 13: MPKI improvement (%) relative to Mini, "
                 "one parameter at a time")
    for parameter, values in series.items():
        print(f"\n{parameter}:")
        for value, improvement in values.items():
            print(f"  {value!s:>6s}: {improvement:+6.2f}%")

    for parameter, values in series.items():
        ladder = list(values.items())
        # each parameter's Mini operating point appears in its ladder and
        # scores ~0 by construction
        mini_points = [imp for val, imp in ladder
                       if abs(imp) < 1e-9]
        assert mini_points, parameter
        # starving the structure (smallest value) must not help (small
        # positive noise allowed: sweep regions are short)
        smallest_improvement = ladder[0][1]
        assert smallest_improvement <= 5.0, parameter
        # growing to Big levels must not catastrophically hurt
        largest_improvement = ladder[-1][1]
        assert largest_improvement > -25.0, parameter

    # the two structures the paper highlights as Big's drivers behave:
    # shrinking the window or the chain cache below Mini costs accuracy
    window = list(series["window_slots"].items())
    assert window[0][1] < 1.0
    chain_cache = list(series["chain_cache_entries"].items())
    assert chain_cache[0][1] < 2.0
