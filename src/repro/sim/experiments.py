"""Experiment runner facade.

The classic module-level API (``run``/``run_cells``/``run_matrix``/
``simulate``) delegates to the process-wide *default session* (see
:mod:`repro.session`), which owns the result-cache LRU and the shared
committed-trace cache and whose :class:`~repro.config.RunConfig` is
re-resolved from the environment on every call — ``REPRO_INSTRUCTIONS``,
``REPRO_WARMUP``, ``REPRO_CACHE_SIZE`` and friends are read at
*resolution time*, never frozen at import.  Code that needs two
configurations side by side builds explicit
:class:`~repro.session.Session` objects instead.

Variant and component catalogues moved to decorator-based registries:

* predictors — :mod:`repro.predictors.registry` (``@register_predictor``);
* BR configs — :data:`repro.core.config.UARCH_CONFIGS`
  (``@register_uarch_config``);
* named variants — :mod:`repro.sim.variants` (``@register_variant``);
* benchmarks — :mod:`repro.workloads.registry` (``@register_benchmark``).

Region sizes and cache bounds live on ``default_session().config``; the
session's caches are ``default_session().result_cache`` and
``.trace_cache``.  A cell with Branch Runahead fields changed is named by
an override token (:func:`~repro.sim.variants.override_variant`), e.g.
``run("mcf_17", override_variant("mini", dce_in_order=True))``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.session import (  # noqa: F401  (re-exported API)
    Session,
    default_session,
    merged_registry,
)
from repro.sim.results import SimulationResult
from repro.sim.variants import (  # noqa: F401  (re-exported API)
    is_predictor_only,
    override_variant,
    register_variant,
    spec_variant,
    variant_kwargs,
    variant_names,
)


def clear_caches() -> None:
    """Drop the default session's caches."""
    default_session().clear_caches()


def run(benchmark: str, variant: str, **kwargs) -> SimulationResult:
    """Run one cell in the default session (see :meth:`Session.run`)."""
    return default_session().run(benchmark, variant, **kwargs)


def run_cells(cells: Sequence[Tuple[str, str]],
              instructions: Optional[int] = None,
              warmup: Optional[int] = None,
              jobs: Optional[int] = None,
              cache: bool = True,
              outputs: str = "full",
              journal: Optional[str] = None,
              progress=None) -> List[dict]:
    """Run cells in the default session (see :meth:`Session.run_cells`)."""
    return default_session().run_cells(
        cells, instructions=instructions, warmup=warmup, jobs=jobs,
        cache=cache, outputs=outputs, journal=journal, progress=progress)


def run_matrix(variants: Optional[Iterable[str]] = None,
               benchmarks: Optional[Iterable[str]] = None,
               instructions: Optional[int] = None,
               warmup: Optional[int] = None,
               jobs: Optional[int] = None,
               cache: bool = True,
               outputs: str = "full",
               merged: bool = False):
    """Run a matrix in the default session (see :meth:`Session.run_matrix`)."""
    return default_session().run_matrix(
        variants=variants, benchmarks=benchmarks, instructions=instructions,
        warmup=warmup, jobs=jobs, cache=cache, outputs=outputs,
        merged=merged)


def simulate(benchmark, **kwargs) -> SimulationResult:
    """Cache-sharing simulate in the default session.

    See :meth:`Session.simulate` — notebook callers get trace-cache and
    result-cache sharing without building a session or going through
    variant tokens.
    """
    return default_session().simulate(benchmark, **kwargs)


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
