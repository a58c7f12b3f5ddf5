"""Scaffold vs FedAvg on a heterogeneous logistic benchmark.

Each client's data comes from one of two differently generated sources,
so FedAvg suffers client drift and plateaus high, while Scaffold's
control variates cancel the drift and keep improving; more clients push
the Scaffold plateau further down.  Prints plateau MSE per cell.

Run:  python3 demos/figure1.py   (takes about 2 s)
"""

import numpy as np

from scaffold_sim.harness import ExperimentConfig, run_figure1


def main():
    config = ExperimentConfig(task="figure1", rounds=60, seeds=[0, 1])
    _, agg = run_figure1(config)

    series = {}
    for row in agg.strip().splitlines()[1:]:
        algo, n, _, mean, _ = row.split(",")
        series.setdefault((algo, int(n)), []).append(float(mean))

    print(f"{'algorithm':>10} {'N':>5} {'final mse':>12} {'plateau mse':>12}")
    for (algo, n), vals in sorted(series.items()):
        plateau = float(np.mean(vals[-10:]))
        print(f"{algo:>10} {n:>5} {vals[-1]:>12.3e} {plateau:>12.3e}")


if __name__ == "__main__":
    main()
