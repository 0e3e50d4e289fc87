"""Simulation entry point, results, sweep and variant helpers."""

from repro.sim.results import (
    SimulationResult,
    arithmetic_mean,
    geometric_mean,
    ipc_improvement,
    mpki_improvement,
)
from repro.sim.simulator import simulate

__all__ = [
    "SimulationResult",
    "arithmetic_mean",
    "geometric_mean",
    "ipc_improvement",
    "mpki_improvement",
    "simulate",
    "sweeps",
    "variants",
]


def __getattr__(name: str):
    # sweeps sits above repro.session, which itself imports sim
    # submodules — importing it lazily keeps the package import acyclic
    # from every entry point
    if name in ("sweeps", "variants", "bench"):
        import importlib
        return importlib.import_module(f"repro.sim.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
