"""Tests for the master's load rebalancer (paper §5.1)."""

import math

from repro.algorithms.graph_common import EdgeStreamRouter
from repro.algorithms.sssp import SSSPProgram, reference_sssp
from repro.core import Application, TornadoConfig, TornadoJob
from repro.streams import UniformRate, edge_stream

EDGES = [(0, i) for i in range(1, 30)] + [(i, i + 1) for i in range(1, 29)]


def make_job(skewed=True, **config_kwargs):
    config_kwargs.setdefault("n_processors", 3)
    config_kwargs.setdefault("report_interval", 0.01)
    config_kwargs.setdefault("storage_backend", "memory")
    config_kwargs.setdefault("rebalance_enabled", True)
    config_kwargs.setdefault("rebalance_factor", 1.5)
    config_kwargs.setdefault("rebalance_min_gap", 0.001)
    config_kwargs.setdefault("rebalance_cooldown", 0.2)
    app = Application(SSSPProgram(0), EdgeStreamRouter(), name="sssp")
    job = TornadoJob(app, TornadoConfig(**config_kwargs))
    if skewed:
        # Pathological initial placement: everything on proc-0.
        for vertex in range(30):
            job.partition._overrides[vertex] = "proc-0"
    return job


def distances(values):
    return {vid: v.distance for vid, v in values.items()
            if not math.isinf(v.distance)}


def reference():
    return {v: d for v, d in reference_sssp(EDGES, 0).items()
            if not math.isinf(d)}


class TestRebalancing:
    def test_skewed_load_triggers_rebalance(self):
        job = make_job()
        job.feed(edge_stream(EDGES, UniformRate(rate=300.0)))
        job.run_for(4.0)
        assert job.master.rebalances >= 1
        # Some vertices actually left the hot processor.
        owners = {job.partition.owner(v) for v in range(30)}
        assert owners != {"proc-0"}

    def test_results_exact_after_rebalance(self):
        job = make_job()
        job.feed(edge_stream(EDGES, UniformRate(rate=300.0)))
        job.run_for(4.0)
        assert job.master.rebalances >= 1
        result = job.query_and_wait(full_activation=True)
        assert distances(result.values) == reference()

    def test_every_input_ingested_while_migrating(self):
        """Tuples arriving while vertices migrate are all ingested: the
        live migrator never holds the stream back."""
        job = make_job()
        stream = edge_stream(EDGES, UniformRate(rate=300.0))
        job.feed(stream)
        job.run_for(4.0)
        assert job.ingester.tuples_ingested == len(stream)

    def test_disabled_by_default(self):
        job = make_job(rebalance_enabled=False)
        job.feed(edge_stream(EDGES, UniformRate(rate=300.0)))
        job.run_for(3.0)
        assert job.master.rebalances == 0
        assert {job.partition.owner(v) for v in range(30)} == {"proc-0"}

    def test_balanced_load_is_left_alone(self):
        job = make_job(skewed=False, rebalance_factor=50.0)
        job.feed(edge_stream(EDGES, UniformRate(rate=300.0)))
        job.run_for(3.0)
        assert job.master.rebalances == 0

    def test_forwarding_covers_in_flight_messages(self):
        """Messages addressed to the old owner are forwarded to the new
        one, so updates routed mid-rebalance still arrive."""
        job = make_job()
        stream = edge_stream(EDGES, UniformRate(rate=300.0))
        job.feed(stream)
        job.run_for(4.0)
        # Approximation converged to the truth despite the moves.
        approx = distances(job.main_values())
        assert approx == reference()
