"""Branch predictors: baselines, TAGE-SC-L, MTAGE-SC, initiation counter."""

from repro.predictors.base import AlwaysTakenPredictor, BranchPredictor
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gshare import GSharePredictor
from repro.predictors.initiation_predictor import InitiationPredictor
from repro.predictors.loop_predictor import LoopPredictor
from repro.predictors.mtage import mtage_sc
from repro.predictors.perceptron import PerceptronPredictor
from repro.predictors.statistical_corrector import StatisticalCorrector
from repro.predictors.tage import TageConfig, TagePredictor
from repro.predictors.tage_scl import TageSCL, tage_scl_64kb, tage_scl_80kb

__all__ = [
    "AlwaysTakenPredictor",
    "BranchPredictor",
    "BimodalPredictor",
    "GSharePredictor",
    "InitiationPredictor",
    "LoopPredictor",
    "mtage_sc",
    "PerceptronPredictor",
    "StatisticalCorrector",
    "TageConfig",
    "TagePredictor",
    "TageSCL",
    "tage_scl_64kb",
    "tage_scl_80kb",
]
