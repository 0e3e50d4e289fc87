"""Parameter sweeps (Figure 13).

Each sweep varies one Branch Runahead structure from the Mini configuration
up to the Big configuration and reports MPKI improvement *relative to
Mini*, isolating that parameter's contribution.  The paper ran sweeps on
shorter regions (10M vs 200M instructions); we do the same proportionally.

All sweeps of a ladder are one :meth:`~repro.session.Session.run_cells`
call over the Mini reference cells plus one override token
(``"mini[hbt_entries=16]"``) per parameter, value and benchmark, so the
references run once, a pool sweep starts one pool, and every cell
resumes from the session's result store like any other sweep's.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.session import Session
from repro.sim.results import arithmetic_mean, mpki_improvement
from repro.sim.variants import override_variant

#: Figure 13's six swept parameters and their value ladders
#: (Mini value first, Big-level value last).
SWEEPS: Dict[str, List] = {
    "chain_cache_entries": [8, 16, 32, 64, 256, 1024],
    "prediction_queue_entries": [2, 8, 32, 64, 256, 1024],
    "ceb_entries": [64, 128, 256, 512, 2048],
    "window_slots": [4, 16, 64, 128, 256, 1024],
    "hbt_entries": [8, 16, 64, 256, 1024],
    "max_chain_length": [2, 4, 8, 16, 32, 128],
}

#: Shorter regions for the many sweep simulations (paper footnote 16).
SWEEP_INSTRUCTIONS = 6000
SWEEP_WARMUP = 4000


def _sweep_token(parameter: str, value) -> str:
    fields = {parameter: value}
    if parameter == "prediction_queue_entries":
        # the queue bounds how far chains run ahead; scale the eager
        # production cap with it so the sweep actually exercises depth
        fields["runahead_limit"] = min(int(value), 32)
    return override_variant("mini", **fields)


def sweep_parameters(session: Session, benchmarks: Sequence[str],
                     ladder: Optional[Mapping[str, Sequence]] = None
                     ) -> Dict[str, Dict[object, float]]:
    """Mean MPKI improvement vs Mini for each value of each parameter.

    ``ladder`` maps each swept parameter to its values (default
    :data:`SWEEPS`); the result is ``{parameter: {value: improvement}}``.
    The math needs every cell, so unlike the matrix runner a failed cell
    raises ``RuntimeError`` naming it.
    """
    ladder = SWEEPS if ladder is None else ladder
    tokens = {parameter: [_sweep_token(parameter, value)
                          for value in values]
              for parameter, values in ladder.items()}
    cells = [(name, "mini") for name in benchmarks]
    cells += [(name, token) for parameter_tokens in tokens.values()
              for token in parameter_tokens for name in benchmarks]
    rows = session.run_cells(cells, instructions=SWEEP_INSTRUCTIONS,
                             warmup=SWEEP_WARMUP)
    mpki = {}
    for row in rows:
        error = row["error"]
        if error is not None:
            raise RuntimeError(
                f"sweep cell {row['benchmark']}/{row['variant']} failed: "
                f"{error['type']}: {error['message']}")
        mpki[row["benchmark"], row["variant"]] = row["payload"]["mpki"]
    return {parameter: {value: arithmetic_mean(
                mpki_improvement(mpki[name, "mini"], mpki[name, token])
                for name in benchmarks)
            for value, token in zip(values, tokens[parameter])}
            for parameter, values in ladder.items()}
