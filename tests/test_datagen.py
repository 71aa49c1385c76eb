"""Unit tests for the synthetic dataset generators."""

import numpy as np
import pytest

from repro.algorithms.sgd import LogisticLoss
from repro.datagen import (degree_histogram, gaussian_mixture, higgs_like,
                           livejournal_like, pubmed_like, rmat_edges)


class TestGraphs:
    def test_rmat_deterministic(self):
        a = rmat_edges(64, 200, np.random.default_rng(1))
        b = rmat_edges(64, 200, np.random.default_rng(1))
        assert a == b

    def test_rmat_size_and_bounds(self):
        edges = rmat_edges(100, 300, np.random.default_rng(0))
        assert len(edges) == 300
        assert all(0 <= u < 100 and 0 <= v < 100 for u, v in edges)

    def test_rmat_no_self_loops_or_dups_by_default(self):
        edges = rmat_edges(64, 200, np.random.default_rng(0))
        assert all(u != v for u, v in edges)
        assert len(set(edges)) == len(edges)

    def test_rmat_degree_skew(self):
        """R-MAT graphs are skewed: max degree far above the mean."""
        edges = rmat_edges(256, 2000, np.random.default_rng(0))
        histogram = degree_histogram(edges)
        max_degree = max(histogram)
        mean_degree = 2000 / 256
        assert max_degree > 4 * mean_degree

    def test_rmat_validation(self):
        with pytest.raises(ValueError):
            rmat_edges(1, 10, np.random.default_rng(0))
        with pytest.raises(ValueError):
            rmat_edges(10, 10, np.random.default_rng(0), a=0.5, b=0.5,
                       c=0.2)

    def test_livejournal_like_source_reaches_most(self):
        edges = livejournal_like(n_vertices=300, n_edges=1500, seed=3)
        adjacency = {}
        for u, v in edges:
            adjacency.setdefault(u, []).append(v)
        reachable, stack = {0}, [0]
        while stack:
            for target in adjacency.get(stack.pop(), []):
                if target not in reachable:
                    reachable.add(target)
                    stack.append(target)
        reachable_edges = [(u, v) for u, v in edges if u in reachable]
        assert len(reachable_edges) > len(edges) * 0.5


class TestPoints:
    def test_mixture_shapes(self):
        points, centres = gaussian_mixture(100, k=4, dim=20, seed=0)
        assert len(points) == 100
        assert centres.shape == (4, 20)
        assert points[0].shape == (20,)

    def test_mixture_deterministic(self):
        a, _ = gaussian_mixture(50, seed=9)
        b, _ = gaussian_mixture(50, seed=9)
        assert all((x == y).all() for x, y in zip(a, b))

    def test_points_cluster_around_centres(self):
        points, centres = gaussian_mixture(500, k=3, dim=5, spread=50.0,
                                           noise=0.5, seed=1)
        for point in points[:50]:
            nearest = min(np.linalg.norm(point - c) for c in centres)
            assert nearest < 5.0

    def test_drift_moves_centres(self):
        early, _ = gaussian_mixture(400, k=1, dim=3, noise=0.01, seed=2,
                                    drift=20.0)
        first_mean = np.mean(early[:50], axis=0)
        last_mean = np.mean(early[-50:], axis=0)
        assert np.linalg.norm(last_mean - first_mean) > 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            gaussian_mixture(0)


class TestInstances:
    @pytest.mark.parametrize("factory,dim", [(higgs_like, 28),
                                             (pubmed_like, 200)])
    def test_learnable(self, factory, dim):
        """A linear model trained on the data recovers the labels —
        the property the SVM/LR workloads need."""
        instances, _w = factory(600, seed=4)
        xs = np.stack([inst.x() for inst in instances])
        ys = np.asarray([inst.label for inst in instances], dtype=float)
        loss = LogisticLoss(1e-4)
        w = np.zeros(dim)
        for _ in range(300):
            w = w - 0.5 * loss.gradient(w, xs, ys)
        accuracy = (np.sign(xs @ w) == ys).mean()
        assert accuracy > 0.8

    def test_pubmed_like_sparse(self):
        instances, _w = pubmed_like(20, dim=200, density=0.05, seed=0)
        x = instances[0].x()
        assert (x != 0).sum() <= 0.1 * 200

    def test_labels_are_binary(self):
        instances, _w = higgs_like(50, seed=0)
        assert {inst.label for inst in instances} <= {-1, 1}

    def test_drift_rotates_hyperplane(self):
        """With drift, early and late halves prefer different models."""
        instances, _w = higgs_like(1000, seed=5, noise=0.05, drift=1.5)
        loss = LogisticLoss(1e-4)

        def fit(block):
            xs = np.stack([inst.x() for inst in block])
            ys = np.asarray([inst.label for inst in block], dtype=float)
            w = np.zeros(28)
            for _ in range(200):
                w = w - 0.5 * loss.gradient(w, xs, ys)
            return w / np.linalg.norm(w), xs, ys

        w_early, _xs, _ys = fit(instances[:300])
        _w, xs_late, ys_late = fit(instances[-300:])
        accuracy_cross = (np.sign(xs_late @ w_early) == ys_late).mean()
        assert accuracy_cross < 0.9  # the early model is stale

    def test_deterministic(self):
        a, _ = higgs_like(10, seed=1)
        b, _ = higgs_like(10, seed=1)
        assert a == b
