"""Parameter sweeps (Figure 13).

Each sweep varies one Branch Runahead structure from the Mini configuration
up to the Big configuration and reports MPKI improvement *relative to
Mini*, isolating that parameter's contribution.  The paper ran sweeps on
shorter regions (10M vs 200M instructions); we do the same proportionally.

A sweep is one :meth:`~repro.session.Session.run_cells` call over the
Mini reference cells plus one override token (``"mini[hbt_entries=16]"``)
per value and benchmark, so its cells run on the session's pool, resume
from its result store and report into its merged
:attr:`~repro.session.Session.registry` like any other sweep's.  The
figure benches pass their shared session; the default is the
process-wide default session.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.session import Session, default_session
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


def sweep_parameter(parameter: str, benchmarks: Sequence[str],
                    values: Sequence = None,
                    session: Optional[Session] = None
                    ) -> Dict[object, float]:
    """Mean MPKI improvement vs Mini for each value of ``parameter``.

    The Mini references are shared through the session's caches with
    every other sweep in it.  The math needs every cell, so unlike the
    matrix runner a failed cell raises ``RuntimeError`` naming it.
    """
    session = session if session is not None else default_session()
    values = values if values is not None else SWEEPS[parameter]
    tokens = []
    for value in values:
        fields = {parameter: value}
        if parameter == "prediction_queue_entries":
            # the queue bounds how far chains run ahead; scale the eager
            # production cap with it so the sweep actually exercises depth
            fields["runahead_limit"] = min(int(value), 32)
        tokens.append(override_variant("mini", **fields))
    cells = [(name, "mini") for name in benchmarks]
    cells += [(name, token) for token in tokens for name in benchmarks]
    rows = session.run_cells(cells, instructions=SWEEP_INSTRUCTIONS,
                             warmup=SWEEP_WARMUP, merge=True)
    mpki = {}
    for row in rows:
        error = row["error"]
        if error is not None:
            raise RuntimeError(
                f"sweep cell {row['benchmark']}/{row['variant']} failed: "
                f"{error['type']}: {error['message']}")
        mpki[row["benchmark"], row["variant"]] = row["payload"]["mpki"]
    return {value: arithmetic_mean(
                mpki_improvement(mpki[name, "mini"], mpki[name, token])
                for name in benchmarks)
            for value, token in zip(values, tokens)}
