"""Branch Runahead reproduction (Pruett & Patt, MICRO 2021).

A complete Python implementation of the paper's system and its substrate:

* ``repro.isa`` / ``repro.emulator`` — micro-op ISA, assembler, functional
  emulator with wrong-path shadow execution.
* ``repro.predictors`` — TAGE-SC-L (64/80KB), MTAGE-SC, baselines.
* ``repro.memsys`` — caches, MSHRs, stream prefetcher, DRAM.
* ``repro.uarch`` — 4-wide out-of-order core timing model.
* ``repro.core`` — **Branch Runahead**: hard-branch detection (HBT), chain
  extraction (CEB), the Dependence Chain Engine, prediction queues,
  merge-point prediction, and affector/guard analysis.
* ``repro.workloads`` — the 17-benchmark suite.
* ``repro.sim`` / ``repro.power`` — experiment driver, energy/area models.
* ``repro.telemetry`` — unified stat registry, pipeline event tracing,
  host-side phase timers (see README "Observability & tracing").

Quickstart::

    from repro import simulate, mini, load_benchmark

    program = load_benchmark("leela_17")
    baseline = simulate(program, instructions=20_000, warmup=10_000)
    runahead = simulate(program, instructions=20_000, warmup=10_000,
                        br_config=mini())
    print(baseline.mpki, "->", runahead.mpki)
"""

from repro.config import RunConfig, resolve_config
from repro.core.config import BranchRunaheadConfig, big, core_only, mini
from repro.core.runahead import BranchRunahead
from repro.isa.program import Program, ProgramBuilder
from repro.predictors.mtage import mtage_sc
from repro.predictors.tage_scl import TageSCL, tage_scl_64kb, tage_scl_80kb
from repro.session import Session
from repro.sim.results import SimulationResult
from repro.sim.simulator import simulate
from repro.telemetry import StatRegistry, Telemetry, Tracer
from repro.workloads.suite import load as load_benchmark

__version__ = "1.0.0"

__all__ = [
    "RunConfig",
    "resolve_config",
    "BranchRunaheadConfig",
    "big",
    "core_only",
    "mini",
    "BranchRunahead",
    "Program",
    "ProgramBuilder",
    "mtage_sc",
    "TageSCL",
    "tage_scl_64kb",
    "tage_scl_80kb",
    "Session",
    "SimulationResult",
    "simulate",
    "StatRegistry",
    "Telemetry",
    "Tracer",
    "BENCHMARK_NAMES",
    "load_benchmark",
    "__version__",
]


def __getattr__(name: str):
    # live view: benchmarks registered after import are included
    if name == "BENCHMARK_NAMES":
        from repro.workloads import suite
        return suite.BENCHMARK_NAMES
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
