"""Simulator and verification harness for control-variate federated SGD.

Runs Scaffold and FedAvg on synthetic strongly-convex problems and checks
the stationary-regime theory of the constant-step-size chain: geometric
contraction under synchronous coupling, 1/N speed-up of the stationary
parameter variance, and the first-order bias and covariance formulas.
"""

from .algorithms import coupled_run
from .core import ChainState, RunConfig
from .datagen import ClientDataset
from .objectives import Problem
from .optimum import build_certificate, solve_optimum
from .stationary import estimate_stationary, estimate_stationary_sweep, predict_first_order

__version__ = "0.1.0"

__all__ = [
    "ChainState",
    "ClientDataset",
    "Problem",
    "RunConfig",
    "build_certificate",
    "coupled_run",
    "estimate_stationary",
    "estimate_stationary_sweep",
    "predict_first_order",
    "solve_optimum",
]
