"""Predictor component registry.

Replaces the literal ``PREDICTOR_FACTORIES`` dict: every baseline
predictor the harness can name (CLI ``--predictor``, ``spec:`` variant
tokens, eponymous predictor-only variants) is an entry here.  Adding a
predictor to the whole stack — experiment matrix, MPKI replay fast path,
CLI choices, ``repro list`` — is one decorated definition:

    @register_predictor("mytage")
    def mytage():
        return MyTagePredictor()

A cell running a registered predictor with no Branch Runahead attachment
has branch outcomes that are a pure function of the committed stream, so
``outputs="mpki"`` cells take the :mod:`repro.sim.predictor_replay` fast
path (see :func:`repro.sim.variants.is_predictor_only`).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.predictors.base import BranchPredictor
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gshare import GSharePredictor
from repro.predictors.mtage import mtage_sc
from repro.predictors.perceptron import PerceptronPredictor
from repro.predictors.tage_scl import tage_scl_64kb, tage_scl_80kb
from repro.registry import Registry

#: name -> zero-argument factory returning a fresh BranchPredictor.
PREDICTORS = Registry("predictor")


def register_predictor(name: str, **meta: Any) -> Callable[..., Any]:
    """Decorator registering a zero-argument predictor factory."""
    return PREDICTORS.register(name, **meta)


def make_predictor(name: str) -> BranchPredictor:
    """Instantiate a registered predictor by name."""
    return PREDICTORS.get(name)()


# -- built-in registrations (paper baselines) ------------------------------

PREDICTORS.register("tage64", tage_scl_64kb,
                    description="64KB TAGE-SC-L (paper baseline)")
PREDICTORS.register("tage80", tage_scl_80kb,
                    description="80KB TAGE-SC-L (Figure 10 iso-storage)")
PREDICTORS.register("mtage", mtage_sc,
                    description="MTAGE-SC (unlimited-storage champion)")
PREDICTORS.register("bimodal", BimodalPredictor,
                    description="16K-entry 2-bit bimodal table")
PREDICTORS.register("gshare", GSharePredictor,
                    description="16K-entry gshare, 12 bits of history")
PREDICTORS.register("perceptron", PerceptronPredictor,
                    description="512-row perceptron, 24 bits of history")
