"""Result containers and metric arithmetic.

The paper's headline metrics: IPC, branch MPKI, *MPKI improvement* (the
reduction relative to the TAGE-SC-L baseline, normalized to the baseline),
and *IPC improvement*.  Benchmarks aggregate per-workload numbers with
geometric (IPC) and arithmetic (MPKI) means, as the paper does.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Optional, Tuple

from repro.telemetry import StatRegistry, Telemetry
from repro.uarch.stats import CoreStats


def register_predictor(scope, predictor, core: CoreStats) -> None:
    """Publish baseline-predictor attribution into a ``predictor.*`` scope.

    ``lookups``/``mispredicts`` describe the *baseline predictor alone*
    (what it would have done on every conditional branch), independent of
    any prediction-queue override — the per-mechanism attribution the
    paper's Figure 12 and LDBP's evaluation rely on.
    """
    scope.counter("lookups").set(core.cond_branches)
    scope.counter("mispredicts").set(core.baseline_mispredicts)
    accuracy = 1.0
    if core.cond_branches:
        accuracy = 1.0 - core.baseline_mispredicts / core.cond_branches
    scope.gauge("accuracy").set(accuracy)
    if predictor is not None:
        scope.gauge("storage_bits").set(predictor.storage_bits())
        scope.gauge("storage_kb").set(predictor.storage_kb())


class SimulationResult:
    """Everything produced by one simulated region."""

    def __init__(self, program_name: str, core: CoreStats, hierarchy=None,
                 predictor=None, runahead=None,
                 telemetry: Optional[Telemetry] = None, trace_cache=None):
        self.program_name = program_name
        self.core = core
        self.hierarchy = hierarchy
        self.predictor = predictor
        self.runahead = runahead
        self.telemetry = telemetry
        self.trace_cache = trace_cache
        self._registry: Optional[StatRegistry] = None

    @property
    def ipc(self) -> float:
        return self.core.ipc

    @property
    def mpki(self) -> float:
        return self.core.mpki

    @property
    def dce(self):
        return self.runahead.dce.stats if self.runahead else None

    def total_uops_issued(self) -> int:
        """Core + DCE uops (Figure 3 numerator)."""
        extra = self.dce.uops_executed if self.dce else 0
        return self.core.instructions + extra

    def summary(self) -> str:
        text = f"{self.program_name}: {self.core.summary()}"
        if self.runahead is not None:
            dce = self.runahead.dce.stats
            text += (f" | DCE uops={dce.uops_executed}"
                     f" syncs={dce.syncs}"
                     f" chains={len(self.runahead.chain_cache)}")
        return text

    # -- telemetry export -------------------------------------------------------

    def build_registry(self) -> StatRegistry:
        """Collect every mechanism's stats into one unified registry.

        Registration happens here, at export time, so the timing hot path
        never pays for the registry; the namespaces mirror the mechanisms:
        ``core.*``, ``predictor.*``, ``memsys.*`` always, plus
        ``runahead.*`` / ``dce.*`` / ``pq.*`` when Branch Runahead is
        attached and ``host.*`` when phase timers ran.
        """
        if self._registry is not None:
            return self._registry  # histograms must not double-record
        registry = self.telemetry.registry if self.telemetry \
            else StatRegistry()
        self._registry = registry
        self.core.register_into(registry.scope("core"))
        register_predictor(registry.scope("predictor"), self.predictor,
                           self.core)
        if self.hierarchy is not None:
            self.hierarchy.register_into(registry.scope("memsys"))
        if self.runahead is not None:
            self.runahead.register_into(registry)
        if self.telemetry is not None:
            self.telemetry.timers.register_into(
                registry.scope("host").scope("phase"))
            tracer = self.telemetry.tracer
            if tracer.enabled:
                trace_scope = registry.scope("host").scope("trace")
                trace_scope.counter("events_emitted").set(tracer.emitted)
                trace_scope.counter("events_dropped").set(tracer.dropped)
        if self.trace_cache is not None:
            # host-side (cache state differs run to run, so it lives under
            # host.* which the bench drift digest strips)
            self.trace_cache.register_into(
                registry.scope("host").scope("trace_cache"))
        return registry

    def to_dict(self) -> dict:
        """The machine-readable result document (``repro run --json``)."""
        document = {
            "benchmark": self.program_name,
            "predictor": getattr(self.predictor, "name", None),
            "branch_runahead": self.runahead is not None,
            "ipc": self.ipc,
            "mpki": self.mpki,
            "stats": self.build_registry().to_dict(),
        }
        if self.runahead is not None:
            document["prediction_breakdown"] = \
                self.runahead.stats.breakdown()
        return document

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def hard_branch_accuracy(result: SimulationResult, count: int = 32
                         ) -> Tuple[float, float]:
    """Figure 1 helper: (predictor, chain) accuracy on the hardest branches.

    Branch hardness is ranked by baseline-predictor mispredictions within
    this run.  The chain accuracy covers validated chain values (falling
    back to the run's predictor accuracy for uncovered branches).
    """
    core = result.core
    hard = core.hardest_branches(count)
    if not hard:
        return 1.0, 1.0
    executed = sum(core.branch_counts[pc] for pc in hard)
    mispredicted = sum(core.branch_mispredicts[pc] for pc in hard)
    predictor_accuracy = 1.0 - mispredicted / max(executed, 1)
    if result.runahead is None:
        return predictor_accuracy, predictor_accuracy
    checks = correct = 0
    stats = result.runahead.stats
    for pc in hard:
        pc_checks = stats.value_checks.get(pc, 0)
        if pc_checks:
            checks += pc_checks
            correct += stats.value_correct.get(pc, 0)
        else:
            # uncovered branch: chains never ran; score the predictor
            checks += core.branch_counts[pc]
            correct += core.branch_counts[pc] - core.branch_mispredicts[pc]
    chain_accuracy = correct / max(checks, 1)
    return predictor_accuracy, chain_accuracy


def mpki_improvement(baseline_mpki: float, new_mpki: float) -> float:
    """Relative MPKI reduction in percent (positive = fewer mispredicts)."""
    if baseline_mpki <= 0:
        return 0.0
    return 100.0 * (baseline_mpki - new_mpki) / baseline_mpki

def ipc_improvement(baseline_ipc: float, new_ipc: float) -> float:
    """Relative IPC gain in percent."""
    if baseline_ipc <= 0:
        return 0.0
    return 100.0 * (new_ipc - baseline_ipc) / baseline_ipc


def geometric_mean(values: Iterable[float]) -> float:
    values = [max(value, 1e-12) for value in values]
    if not values:
        return 0.0
    return math.exp(sum(math.log(value) for value in values) / len(values))


def arithmetic_mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0
