"""Figure 10: the headline result.

MPKI improvement and IPC improvement of Core-Only / Mini / Big Branch
Runahead over the 64KB TAGE-SC-L baseline, plus the iso-storage 80KB
TAGE-SC-L comparison.  Paper means: MPKI -37.5% / -43.6% / -47.5% and IPC
+8.2% / +13.7% / +16.9%, while 80KB TAGE-SC-L improves MPKI by only 0.8%
(IPC +0.3%).
"""

from conftest import ALL_BENCHMARKS, print_header, print_series, run_once

from repro.sim.results import (
    arithmetic_mean,
    ipc_improvement,
    mpki_improvement,
)

VARIANTS = ["tage80", "core_only", "mini", "big"]


def test_fig10_mpki_and_ipc_improvement(benchmark, shared_session):
    def experiment():
        mpki_rows = []
        ipc_rows = []
        for name in ALL_BENCHMARKS:
            base = shared_session.run(name, "tage64")
            mpki_values = {}
            ipc_values = {}
            for variant in VARIANTS:
                result = shared_session.run(name, variant)
                mpki_values[variant] = mpki_improvement(base.mpki,
                                                        result.mpki)
                ipc_values[variant] = ipc_improvement(base.ipc, result.ipc)
            mpki_rows.append((name, mpki_values))
            ipc_rows.append((name, ipc_values))
        return mpki_rows, ipc_rows

    mpki_rows, ipc_rows = run_once(benchmark, experiment)
    mpki_mean = {v: arithmetic_mean(values[v] for _, values in mpki_rows)
                 for v in VARIANTS}
    ipc_mean = {v: arithmetic_mean(values[v] for _, values in ipc_rows)
                for v in VARIANTS}

    print_header("Figure 10 (top): relative MPKI improvement (%) "
                 "vs 64KB TAGE-SC-L")
    print_series(mpki_rows + [("mean", mpki_mean)], VARIANTS)
    print_header("Figure 10 (bottom): relative IPC improvement (%) "
                 "vs 64KB TAGE-SC-L")
    print_series(ipc_rows + [("mean", ipc_mean)], VARIANTS)

    # --- shape assertions -------------------------------------------------
    # 1. every BR configuration strongly beats more TAGE storage
    assert mpki_mean["tage80"] < 10
    for variant in ("core_only", "mini", "big"):
        assert mpki_mean[variant] > 20
        assert mpki_mean[variant] > mpki_mean["tage80"] + 10
    # 2. the cost/parallelism ordering: big >= mini >= core_only (loosely)
    assert mpki_mean["big"] >= mpki_mean["mini"] - 3
    assert mpki_mean["mini"] >= mpki_mean["core_only"] - 3
    # 3. MPKI gains translate into IPC gains
    assert ipc_mean["mini"] > 10
    assert ipc_mean["big"] >= ipc_mean["core_only"]
