"""Show the 1/N shrinkage of the stationary parameter variance.

With a shared step size and a shared data pool, doubling the number of
clients should halve the stationary variance of the global parameter.
The product N * trace(cov) is therefore (nearly) constant, and both
columns should track the first-order prediction (gamma/N) * trace(A Sigma).

Run:  python3 demos/speedup.py
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
        task="speedup", loss="quadratic", l2_weight=0.1, n_features=10,
        records_per_client=100, informative=[2, 6], noise_std=5.0,
        batch_size=10,
    )
    n_list = (2, 4, 8)
    pool_records = config.records_per_client * n_list[-1] // 2

    setups = {}
    for n in n_list:
        problem = build_problem(config, n, source_records=pool_records)
        setups[n] = (problem, build_certificate(problem, solve_optimum(problem)))
    gamma = 1.0 / (24.0 * setups[n_list[-1]][1].big_l)

    print(f"shared step size gamma = {gamma:.4g}, H = 10")
    print(f"{'N':>4} {'trace(cov)':>12} {'predicted':>12} {'N*trace':>12}")
    # one chain per client count, all run in lockstep as one block
    chains = [
        setups[n] + (RunConfig(gamma=gamma, local_steps=10, n_clients=n, rounds=1,
                               batch_size=config.batch_size, seed=0),)
        for n in n_list
    ]
    estimates = estimate_stationary_sweep(chains, n_samples=4000)
    for n, est in zip(n_list, estimates):
        problem, cert = setups[n]
        pred = predict_first_order(problem, cert, gamma, 10)
        tr = float(np.trace(est.cov_theta))
        tr_pred = float(np.trace(pred.cov_theta))
        print(f"{n:>4} {tr:>12.5g} {tr_pred:>12.5g} {n * tr:>12.5g}")


if __name__ == "__main__":
    main()
