"""Show the 1/N shrinkage of the stationary parameter variance.

With a shared step size and a shared data pool, doubling the number of
clients should halve the stationary variance of the global parameter.
The product N * trace(cov) is therefore (nearly) constant, and both
columns should track the first-order prediction (gamma/N) * trace(A Sigma).
The numbers come from the `speedup` task, as `scaffold-sim speedup` runs it.

Run:  python3 demos/speedup.py
"""

from scaffold_sim.harness import ExperimentConfig, run_speedup


def main():
    config = ExperimentConfig(
        task="speedup", loss="quadratic", l2_weight=0.1, n_features=10,
        records_per_client=100, informative=[2, 6], noise_std=5.0,
        batch_size=10, gamma=None, gamma_over_l=1.0 / 24.0, local_steps=10,
        n_clients=[2, 4, 8], seeds=[0], n_samples=4000,
    )

    print("shared step size gamma = 1/(24 L) of the N = 8 certificate, H = 10")
    print(f"{'N':>4} {'trace(cov)':>12} {'predicted':>12} {'N*trace':>12}")
    for row in run_speedup(config).splitlines()[1:]:
        n, tr, tr_pred = (float(x) for x in row.split(","))
        print(f"{int(n):>4} {tr:>12.5g} {tr_pred:>12.5g} {n * tr:>12.5g}")


if __name__ == "__main__":
    main()
