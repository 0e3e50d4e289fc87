"""Parameter sweeps (Figure 13).

Each sweep varies one Branch Runahead structure from the Mini configuration
up to the Big configuration and reports MPKI improvement *relative to
Mini*, isolating that parameter's contribution.  The paper ran sweeps on
shorter regions (10M vs 200M instructions); we do the same proportionally.

Sweeps run through an explicit :class:`~repro.session.Session` — pass one
to share trace/result caches with other work (the figure benches hand in
their shared per-pytest-session instance); the default is the process-wide
default session.  Every sweep cell reports into the session's merged
:attr:`~repro.session.Session.registry` via ``run(merge=True)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.config import env_int
from repro.session import Session, default_session
from repro.sim.results import arithmetic_mean, mpki_improvement

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
#: The environment variables below override them, read on every call.
SWEEP_INSTRUCTIONS = 6000
SWEEP_WARMUP = 4000
SWEEP_INSTRUCTIONS_ENV = "REPRO_SWEEP_INSTRUCTIONS"
SWEEP_WARMUP_ENV = "REPRO_SWEEP_WARMUP"


def sweep_parameter(parameter: str, benchmarks: Sequence[str],
                    values: Sequence = None,
                    session: Optional[Session] = None,
                    journal: Optional[str] = None,
                    progress=None) -> Dict[object, float]:
    """Mean MPKI improvement vs Mini for each value of ``parameter``.

    ``session`` carries the caches and merged stat registry the sweep
    runs under; the Mini reference runs once per benchmark and is shared
    (via the session's result cache) with every other sweep using the
    same session.  ``journal=PATH`` flight-records every cell (the Mini
    references and each overridden run) as a ``repro-journal-v1`` event
    stream, with override cells labelled ``mini[<parameter>=<value>]``;
    ``progress`` receives a live snapshot per cell.  A raising cell is
    journaled as ``cell_failed`` before the exception propagates — the
    sweep's relative-improvement math needs every cell, so unlike the
    matrix runner this path does not continue past failures.
    """
    session = session if session is not None else default_session()
    values = values if values is not None else SWEEPS[parameter]
    instructions = env_int(SWEEP_INSTRUCTIONS_ENV, SWEEP_INSTRUCTIONS)
    warmup = env_int(SWEEP_WARMUP_ENV, SWEEP_WARMUP)
    recorder = None
    if journal is not None or progress is not None:
        from repro.observe.journal import SweepRecorder
        plan = [(name, "mini") for name in benchmarks]
        plan += [(name, f"mini[{parameter}={value}]")
                 for value in values for name in benchmarks]
        recorder = SweepRecorder(
            journal,
            config=session.config.replace(
                instructions=instructions, warmup=warmup),
            cells=plan, jobs=1, outputs="full", executor="inline",
            progress=progress)
        recorder.start()
    from repro.observe.journal import run_recorded
    index = 0
    try:
        reference = {}
        for name in benchmarks:
            reference[name] = run_recorded(
                recorder, index, name, "mini",
                lambda name=name: session.run(
                    name, "mini", instructions=instructions,
                    warmup=warmup, merge=True))
            index += 1
        series: Dict[object, float] = {}
        for value in values:
            overrides = {parameter: value}
            if parameter == "prediction_queue_entries":
                # the queue bounds how far chains run ahead; scale the
                # eager production cap with it so the sweep actually
                # exercises depth
                overrides["runahead_limit"] = min(int(value), 32)
            improvements = []
            for name in benchmarks:
                result = run_recorded(
                    recorder, index, name,
                    f"mini[{parameter}={value}]",
                    lambda name=name, overrides=overrides: session.run(
                        name, "mini", instructions=instructions,
                        warmup=warmup, br_overrides=overrides,
                        merge=True))
                index += 1
                improvements.append(
                    mpki_improvement(reference[name].mpki, result.mpki))
            series[value] = arithmetic_mean(improvements)
    except BaseException:
        if recorder is not None:
            recorder.close()  # truncated journal = incomplete sweep
        raise
    else:
        if recorder is not None:
            recorder.finish()
    return series
