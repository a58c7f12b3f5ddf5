"""Measure the first-order stationary bias on a logistic problem.

A constant step size leaves the chain with a stationary mean slightly off
the optimum.  For logistic loss the leading term is proportional to gamma
and points along -Hf^{-1} * (third derivative applied to the noise
resolvent); halving gamma should roughly halve the measured bias and keep
its direction.  Quadratic losses have no curvature variation, so the same
protocol there measures pure estimation noise.

Run:  python3 demos/bias.py   (takes about 4 s)
"""

import numpy as np

from scaffold_sim import (
    RunConfig,
    build_certificate,
    estimate_stationary_sweep,
    predict_first_order,
    solve_optimum,
)
from scaffold_sim.harness import ExperimentConfig, build_problem


def main():
    config = ExperimentConfig(
        task="stationary", loss="logistic", l2_weight=0.02, n_features=5,
        records_per_client=200, informative=[2, 5], generator_seeds=[31, 41],
        class_sep=0.5, batch_size=1,
    )
    problem = build_problem(config, 4)
    cert = build_certificate(problem, solve_optimum(problem))
    gamma0 = 1.0 / (16.0 * cert.big_l)

    print(f"{'gamma':>10} {'|bias|':>10} {'|predicted|':>12} {'cosine':>8}")
    gammas = (gamma0, gamma0 / 2.0)
    # both step sizes run in lockstep as one block of chains
    chains = [
        (problem, cert, RunConfig(gamma=gamma, local_steps=5, rounds=1, seed=3))
        for gamma in gammas
    ]
    biases = []
    for gamma, est in zip(gammas, estimate_stationary_sweep(chains, n_samples=20000)):
        pred = predict_first_order(cert, gamma, 5)
        b, bp = est.bias_theta, pred.bias_theta
        cos = b @ bp / (np.linalg.norm(b) * np.linalg.norm(bp))
        biases.append(np.linalg.norm(b))
        print(f"{gamma:>10.5f} {np.linalg.norm(b):>10.5f} "
              f"{np.linalg.norm(bp):>12.5f} {cos:>8.3f}")
    print(f"\nbias ratio after halving gamma: {biases[0] / biases[1]:.2f} "
          "(first-order theory says 2)")


if __name__ == "__main__":
    main()
