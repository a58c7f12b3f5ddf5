import numpy as np
import pytest

from scaffold_sim import datagen, objectives, optimum


@pytest.fixture
def two_client_1d():
    """f1 = (theta-1)^2/2, f2 = (theta+1)^2/2: optimum 0, ideal xi (1, -1)."""
    c1 = datagen.ClientDataset(np.array([[1.0]]), np.array([1.0]), client_id=0)
    c2 = datagen.ClientDataset(np.array([[1.0]]), np.array([-1.0]), client_id=1)
    return objectives.Problem([c1, c2], loss="quadratic", l2_weight=0.0, batch_size=1)


def random_problem(loss, n_clients=3, n_records=30, d=4, l2_weight=0.1,
                   batch_size=5, seed=0):
    rng = np.random.default_rng(seed)
    clients = []
    for c in range(n_clients):
        features = rng.standard_normal((n_records, d))
        if loss == "quadratic":
            targets = features @ rng.standard_normal(d) + rng.standard_normal(n_records)
        else:
            targets = np.where(rng.random(n_records) < 0.5, 1.0, -1.0)
        clients.append(datagen.ClientDataset(features, targets, client_id=c))
    return objectives.Problem(clients, loss=loss, l2_weight=l2_weight,
                              batch_size=batch_size)


def certificate_for(problem):
    return optimum.build_certificate(problem, optimum.solve_optimum(problem))


@pytest.fixture
def quad_problem():
    return random_problem("quadratic", seed=1)


@pytest.fixture
def logistic_problem():
    return random_problem("logistic", seed=2)
