"""Watch two coupled chains collapse at the predicted geometric rate.

Two Scaffold chains start far apart but consume identical noise streams.
Theory says their weighted distance shrinks by (1 - gamma*mu/4)^H per
round; this script prints the measured distance next to that envelope.

Run:  python3 demos/contraction.py
"""

import numpy as np

from scaffold_sim import (
    ChainState,
    ClientDataset,
    Problem,
    RunConfig,
    build_certificate,
    coupled_run,
    solve_optimum,
)


def make_problem(n_clients=4, n_records=60, d=8, seed=0):
    rng = np.random.default_rng(seed)
    clients = []
    for c in range(n_clients):
        x = rng.standard_normal((n_records, d))
        y = x @ rng.standard_normal(d) + rng.standard_normal(n_records)
        clients.append(ClientDataset(x, y, client_id=c))
    return Problem(clients, loss="quadratic", l2_weight=0.3, batch_size=8)


def main():
    problem = make_problem()
    cert = build_certificate(problem, solve_optimum(problem))
    gamma = 1.0 / (4.0 * cert.big_l)
    local_steps, rounds = 10, 60
    config = RunConfig(gamma=gamma, local_steps=local_steps, rounds=rounds)

    rng = np.random.default_rng(1)
    state_a = ChainState.zeros(problem.d, problem.n_clients)
    state_b = ChainState(5.0 * rng.standard_normal(problem.d),
                         np.zeros((problem.n_clients, problem.d)))

    [dist] = coupled_run(problem, config, [7], [(state_a, state_b)])
    rate = (1.0 - gamma * cert.mu / 4.0) ** local_steps
    bound = dist[0] * rate ** np.arange(rounds + 1)

    print(f"condition number L/mu = {cert.big_l / cert.mu:.1f}, "
          f"per-round rate = {rate:.4f}")
    print(f"{'round':>6} {'distance^2':>14} {'envelope':>14}")
    for t in range(0, rounds + 1, 6):
        print(f"{t:>6} {dist[t]:>14.6e} {bound[t]:>14.6e}")
    print("\nenvelope respected at every round:",
          bool(np.all(dist <= bound * (1 + 1e-12))))


if __name__ == "__main__":
    main()
