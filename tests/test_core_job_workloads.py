"""End-to-end integration tests for PageRank, connected components, KMeans
and SGD workloads running on the full Tornado runtime."""

import hashlib

import numpy as np
import pytest

from repro.algorithms import (ConnectedComponentsProgram, EdgeStreamRouter,
                              KMeansProgram, PageRankProgram, StaticRate,
                              reference_components, reference_kmeans,
                              reference_pagerank, svm_application)
from repro.algorithms.kmeans import PointRouter
from repro.algorithms.sgd import PARAM, HingeLoss
from repro.core import Application, TornadoConfig, TornadoJob
from repro.datagen import gaussian_mixture, higgs_like
from repro.streams import UniformRate, edge_stream, instance_stream, \
    point_stream


def config(**kwargs):
    kwargs.setdefault("n_processors", 3)
    kwargs.setdefault("report_interval", 0.01)
    kwargs.setdefault("storage_backend", "memory")
    return TornadoConfig(**kwargs)


class TestPageRankJob:
    EDGES = [(0, 1), (0, 2), (1, 2), (2, 0), (3, 2), (2, 3), (1, 3),
             (3, 0), (4, 0), (0, 4)]

    def run_job(self, **cfg):
        app = Application(PageRankProgram(tolerance=1e-4),
                          EdgeStreamRouter(), name="pagerank")
        job = TornadoJob(app, config(**cfg))
        job.feed(edge_stream(self.EDGES, UniformRate(rate=1000.0)))
        job.run_for(3.0)
        return job, job.query_and_wait()

    def test_matches_power_iteration(self):
        _job, result = self.run_job()
        expected = reference_pagerank(self.EDGES)
        for vertex, rank in expected.items():
            assert result.values[vertex].rank == pytest.approx(
                rank, abs=0.02)

    def test_synchronous_matches_too(self):
        _job, result = self.run_job(delay_bound=1)
        expected = reference_pagerank(self.EDGES)
        for vertex, rank in expected.items():
            assert result.values[vertex].rank == pytest.approx(
                rank, abs=0.02)

    def test_rank_mass_conserved(self):
        _job, result = self.run_job()
        total = sum(v.rank for v in result.values.values())
        assert total == pytest.approx(len(
            {u for e in self.EDGES for u in e}), rel=0.05)


class TestConnectedComponentsJob:
    EDGES = [(1, 2), (2, 3), (3, 4), (10, 11), (11, 12), (20, 21)]

    def test_labels_match_union_find(self):
        app = Application(ConnectedComponentsProgram(),
                          EdgeStreamRouter(undirected=True), name="cc")
        job = TornadoJob(app, config())
        job.feed(edge_stream(self.EDGES, UniformRate(rate=1000.0)))
        job.run_for(3.0)
        result = job.query_and_wait()
        expected = reference_components(self.EDGES)
        labels = {vid: value.label for vid, value in result.values.items()}
        assert labels == expected

    def test_components_merge_on_new_edge(self):
        app = Application(ConnectedComponentsProgram(),
                          EdgeStreamRouter(undirected=True), name="cc")
        job = TornadoJob(app, config())
        job.feed(edge_stream(self.EDGES, UniformRate(rate=1000.0)))
        job.run_for(3.0)
        before = job.query_and_wait()
        assert before.values[12].label == 10
        bridge = edge_stream([(4, 10)], UniformRate(rate=1000.0,
                                                    start=job.sim.now))
        job.feed(bridge)
        job.run_for(3.0)
        after = job.query_and_wait()
        assert after.values[12].label == 1
        assert after.values[21].label == 20  # untouched component


class TestKMeansJob:
    def make_job(self, n_points=96, k=2, dim=3, **cfg):
        points, _centres = gaussian_mixture(n_points, k=k, dim=dim,
                                            spread=8.0, noise=0.4, seed=3)
        initial = [points[0], points[-1]]
        program = KMeansProgram(k=k, n_shards=3, dim=dim, tolerance=1e-4,
                                input_batch=8)
        app = Application(program, PointRouter(k, 3, initial),
                          name="kmeans")
        job = TornadoJob(app, config(**cfg))
        job.feed(point_stream(points, UniformRate(rate=2000.0)))
        return job, points, initial

    def test_centroids_match_lloyd(self):
        job, points, initial = self.make_job()
        job.run_for(3.0)
        result = job.query_and_wait()
        positions = sorted(
            (tuple(np.round(v.position, 2))
             for vid, v in result.values.items() if vid[0] == "centroid"))
        expected = sorted(tuple(np.round(c, 2))
                          for c in reference_kmeans(points, initial))
        for got, want in zip(positions, expected):
            assert np.allclose(got, want, atol=0.3)

    def test_centroid_count_stable(self):
        job, _points, _initial = self.make_job()
        job.run_for(3.0)
        result = job.query_and_wait()
        centroids = [vid for vid in result.values if vid[0] == "centroid"]
        assert len(centroids) == 2


class TestSGDJob:
    def make_job(self, drift=0.0, **cfg):
        instances, true_w = higgs_like(400, dim=8, seed=6, noise=0.1,
                                       drift=drift)
        app = svm_application(
            dim=8, n_samplers=3,
            schedule_factory=lambda: StaticRate(0.2),
            batch_size=16, reservoir_capacity=256, input_batch=8,
            tolerance=3e-3)
        job = TornadoJob(app, config(**cfg))
        job.feed(instance_stream(instances, UniformRate(rate=2000.0)))
        return job, instances, true_w

    def accuracy(self, weights, instances):
        xs = np.stack([inst.x() for inst in instances])
        ys = np.asarray([inst.label for inst in instances], dtype=float)
        return float((np.sign(xs @ weights) == ys).mean())

    def test_branch_loop_learns_separator(self):
        job, instances, _true_w = self.make_job()
        job.run_for(1.5)
        result = job.query_and_wait()
        weights = result.values[PARAM].weights
        assert self.accuracy(weights, instances) > 0.9

    def test_branch_result_is_pinned(self):
        """Exact pin of one branch result and the event count.  The
        sampler's row slab, saved RNG states and shared loss margins must
        reproduce the per-instance arithmetic bit for bit.  (Pinned with
        float64 numpy and OpenBLAS; a BLAS that sums in another order
        would move both values.)"""
        job, _instances, _w = self.make_job()
        job.run_for(1.5)
        weights = job.query_and_wait().values[PARAM].weights
        digest = hashlib.sha256(weights.tobytes()).hexdigest()
        assert (digest, job.sim.events_processed) == (
            "f6cc157b548c1b5eae3e22b74ea5a7d95ef57c3de7dc7f63eefa6e4365172a1e",
            77594)

    def test_main_loop_approximation_learns(self):
        """The main loop's mini-batch SGD alone reaches a decent model —
        the approximation that branch loops start from."""
        job, instances, _true_w = self.make_job()
        job.run_for(2.5)
        weights = job.main_values()[PARAM].weights
        assert self.accuracy(weights, instances) > 0.85

    def test_branch_from_approximation_converges_fast(self):
        """A branch forked from a trained main loop needs fewer gradient
        steps than one forked from scratch (the paper's core claim)."""
        warm_job, instances, _w = self.make_job()
        warm_job.run_for(2.5)
        warm = warm_job.query_and_wait()

        cold_app = svm_application(
            dim=8, n_samplers=3,
            schedule_factory=lambda: StaticRate(0.2),
            batch_size=16, reservoir_capacity=256, input_batch=8,
            tolerance=3e-3)
        cold_job = TornadoJob(cold_app, config(main_loop_mode="batch"))
        cold_job.feed(instance_stream(instances, UniformRate(rate=2000.0)))
        cold_job.run_for(2.5)
        cold = cold_job.query_and_wait()
        assert warm.latency < cold.latency

    def test_objective_decreases_over_time(self):
        job, instances, _w = self.make_job()
        xs = np.stack([inst.x() for inst in instances])
        ys = np.asarray([inst.label for inst in instances], dtype=float)
        loss = HingeLoss(1e-3)
        untrained = loss.objective(np.zeros(8), xs, ys)
        job.run_for(2.5)
        late_w = job.main_values()[PARAM]
        late = loss.objective(late_w.weights, xs, ys)
        assert late < untrained * 0.5
