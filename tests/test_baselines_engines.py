"""Unit tests for the baseline engines."""

import pytest

from repro.algorithms import reference_pagerank, reference_sssp
from repro.baselines import (KMeansSolver, MemoryBudgetExceeded,
                             NaiadLikeEngine, PageRankSolver, SSSPSolver,
                             graphlab_like, spark_like)
from repro.datagen import gaussian_mixture, livejournal_like
from repro.streams import UniformRate, edge_stream, point_stream


def graph_tuples(n_vertices=200, n_edges=800, seed=0):
    edges = livejournal_like(n_vertices, n_edges, seed=seed)
    return edges, edge_stream(edges, UniformRate(rate=1e6))


class TestBatchEngines:
    def test_spark_like_results_exact(self):
        edges, tuples = graph_tuples()
        engine = spark_like(SSSPSolver(0))
        engine.feed(tuples)
        run = engine.query()
        assert run.result == reference_sssp(edges, 0)
        assert run.latency > 0

    def test_graphlab_faster_than_spark(self):
        """GraphLab's in-memory execution beats Spark on every workload in
        the paper's Table 3."""
        edges, tuples = graph_tuples()
        spark = spark_like(SSSPSolver(0))
        graphlab = graphlab_like(SSSPSolver(0))
        spark.feed(tuples)
        graphlab.feed(tuples)
        assert graphlab.query().latency < spark.query().latency

    def test_spark_reload_grows_with_history(self):
        """Spark reloads everything per query, so latency grows with the
        accumulated input even when nothing changed."""
        _edges, tuples = graph_tuples()
        engine = spark_like(SSSPSolver(0))
        engine.feed(tuples[:400])
        first = engine.query().latency
        engine.feed(tuples[400:])
        second = engine.query().latency
        assert second > first

    def test_pagerank_through_engines(self):
        edges, tuples = graph_tuples(100, 400)
        engine = graphlab_like(PageRankSolver(tolerance=1e-8))
        engine.feed(tuples)
        run = engine.query()
        expected = reference_pagerank(edges)
        sample = list(expected)[:10]
        for vertex in sample:
            assert run.result[vertex] == pytest.approx(expected[vertex],
                                                       abs=5e-2)


class TestNaiadLikeEngine:
    def test_incremental_results_exact(self):
        edges, tuples = graph_tuples()
        engine = NaiadLikeEngine(SSSPSolver(0), epoch_size=100)
        engine.feed(tuples)
        run = engine.query()
        assert run.result == reference_sssp(edges, 0)
        expected_epochs = -(-len(tuples) // 100)
        assert engine.epochs_processed == expected_epochs

    def test_latency_grows_with_traces(self):
        """The difference-trace accumulation degrades Naiad linearly with
        the number of epochs (paper §6.5): the *same* work costs more on
        an engine that has accumulated more traces."""
        _edges, tuples = graph_tuples(300, 1500, seed=2)
        fresh = NaiadLikeEngine(SSSPSolver(0), epoch_size=150)
        aged = NaiadLikeEngine(SSSPSolver(0), epoch_size=150)
        aged.traces = 500  # pretend many epochs already happened
        fresh.feed(list(tuples))
        aged.feed(list(tuples))
        fresh_run = fresh.query()
        aged_run = aged.query()
        assert aged_run.latency > fresh_run.latency
        assert aged_run.traces > fresh_run.traces

    def test_memory_budget_exhaustion_on_kmeans(self):
        """KMeans difference traces touch every point every iteration —
        Naiad runs out of memory (paper Table 3: '-')."""
        points, _centres = gaussian_mixture(400, k=4, dim=5, seed=0)
        tuples = point_stream(points, UniformRate(rate=1e6))
        engine = NaiadLikeEngine(
            KMeansSolver([points[0], points[100], points[200],
                          points[300]]),
            epoch_size=50, memory_budget=2e5, dense_iterations=True)
        engine.feed(tuples)
        with pytest.raises(MemoryBudgetExceeded):
            engine.query()

    def test_epoch_size_validation(self):
        with pytest.raises(ValueError):
            NaiadLikeEngine(SSSPSolver(0), epoch_size=0)
