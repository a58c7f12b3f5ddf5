"""Simulator and verification harness for control-variate federated SGD.

Runs Scaffold and FedAvg on synthetic strongly-convex problems and checks
the stationary-regime theory of the constant-step-size chain: geometric
contraction under synchronous coupling, 1/N speed-up of the stationary
parameter variance, and the first-order bias and covariance formulas.
"""

from .algorithms import DivergenceError, coupled_run, run_sweep, scaffold_round
from .core import ChainState, RunConfig, lambda_norm_sq
from .datagen import ClientDataset, make_classification, make_regression, split_two_blocks
from .objectives import Problem
from .optimum import OptimumCertificate, SolverError, build_certificate, solve_optimum
from .stationary import (
    ComplexityRecipe,
    FirstOrderPrediction,
    StationaryEstimate,
    complexity_recipe,
    estimate_stationary,
    estimate_stationary_sweep,
    predict_first_order,
    sylvester_solve,
)

__version__ = "0.1.0"

__all__ = [
    "ChainState",
    "ClientDataset",
    "ComplexityRecipe",
    "DivergenceError",
    "FirstOrderPrediction",
    "OptimumCertificate",
    "Problem",
    "RunConfig",
    "SolverError",
    "StationaryEstimate",
    "build_certificate",
    "complexity_recipe",
    "coupled_run",
    "estimate_stationary",
    "estimate_stationary_sweep",
    "lambda_norm_sq",
    "make_classification",
    "make_regression",
    "predict_first_order",
    "run_sweep",
    "scaffold_round",
    "solve_optimum",
    "split_two_blocks",
    "sylvester_solve",
]
