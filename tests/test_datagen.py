import numpy as np
import pytest

from scaffold_sim import datagen, objectives, optimum


class TestMakeRegression:
    def test_noiseless_targets_exact(self):
        x, y, coef = datagen.make_regression(50, 8, 3, noise_std=0.0, seed=4)
        assert np.allclose(y, x @ coef)

    def test_sparsity_of_coefficients(self):
        _, _, coef = datagen.make_regression(100, 20, 2, seed=1)
        assert np.count_nonzero(coef) == 2
        assert np.sum(coef == 0.0) == 18
        assert np.all(coef[coef != 0] > 0) and np.all(coef[coef != 0] <= 100)

    def test_deterministic(self):
        a = datagen.make_regression(30, 5, 2, seed=7)
        b = datagen.make_regression(30, 5, 2, seed=7)
        for u, v in zip(a, b):
            assert np.array_equal(u, v)

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            datagen.make_regression(10, 5, 6, seed=0)
        with pytest.raises(ValueError):
            datagen.make_regression(10, 5, 0, seed=0)


class TestMakeClassification:
    def test_exact_balance(self):
        _, y = datagen.make_classification(1000, 10, 2, seed=3)
        assert np.sum(y == 1.0) == 500
        assert np.sum(y == -1.0) == 500

    def test_zero_separation_makes_labels_uninformative(self):
        x, y = datagen.make_classification(4000, 6, 3, class_sep=0.0, seed=5)
        # centers vanish: per-class feature means agree with the null
        for label in (1.0, -1.0):
            means = x[y == label].mean(axis=0)
            assert np.all(np.abs(means) < 5.0 / np.sqrt(np.sum(y == label)))

    def test_large_separation_is_linearly_separable(self):
        # fit with the package's own solver and measure train accuracy
        x, y = datagen.make_classification(500, 20, 2, class_sep=10.0, seed=6)
        client = datagen.ClientDataset(x, y)
        problem = objectives.Problem([client], loss="logistic", l2_weight=0.01,
                                     batch_size=1)
        theta = optimum.solve_optimum(problem, tolerance=1e-10)
        accuracy = np.mean(np.sign(x @ theta) == y)
        assert accuracy >= 0.99

    def test_deterministic(self):
        a = datagen.make_classification(30, 5, 2, seed=7)
        b = datagen.make_classification(30, 5, 2, seed=7)
        for u, v in zip(a, b):
            assert np.array_equal(u, v)


class TestSplitTwoBlocks:
    def test_two_clients(self):
        a = (np.ones((4, 2)), np.zeros(4))
        b = (2 * np.ones((4, 2)), np.ones(4))
        clients = datagen.split_two_blocks(a, b, 2)
        assert len(clients) == 2
        assert np.array_equal(clients[0].features, a[0])
        assert np.array_equal(clients[1].features, b[0])
        assert [c.client_id for c in clients] == [0, 1]

    def test_records_per_client(self):
        a = datagen.make_regression(1000, 5, 2, seed=0)[:2]
        b = datagen.make_regression(1000, 5, 5, seed=1)[:2]
        clients = datagen.split_two_blocks(a, b, 10)
        assert all(c.n_records == 200 for c in clients)

    def test_partition_preserves_records(self):
        a = datagen.make_regression(12, 3, 1, seed=0)[:2]
        b = datagen.make_regression(12, 3, 3, seed=1)[:2]
        clients = datagen.split_two_blocks(a, b, 4)
        merged = np.vstack([np.column_stack([c.features, c.targets]) for c in clients])
        source = np.vstack([np.column_stack([a[0], a[1]]),
                            np.column_stack([b[0], b[1]])])
        order = np.lexsort(merged.T)
        order_src = np.lexsort(source.T)
        assert np.array_equal(merged[order], source[order_src])

    def test_divisibility_errors(self):
        a = (np.ones((5, 2)), np.zeros(5))
        with pytest.raises(ValueError, match="divisible"):
            datagen.split_two_blocks(a, a, 4)
        with pytest.raises(ValueError):
            datagen.split_two_blocks(a, a, 3)

