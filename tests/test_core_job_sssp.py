"""End-to-end integration tests: a full Tornado job running SSSP on the
simulated cluster, exact results checked against Dijkstra."""

import math

from repro.algorithms.graph_common import EdgeStreamRouter
from repro.algorithms.sssp import SSSPProgram, reference_sssp
from repro.core import Application, TornadoConfig, TornadoJob
from repro.streams import UniformRate, edge_stream

EDGES = [
    ("s", "a"), ("s", "b"), ("a", "c"), ("b", "c"),
    ("c", "d"), ("d", "e"), ("b", "e"), ("e", "f"),
]


def make_job(edges=EDGES, source="s", **config_kwargs):
    config_kwargs.setdefault("n_processors", 3)
    config_kwargs.setdefault("report_interval", 0.01)
    config_kwargs.setdefault("storage_backend", "memory")
    app = Application(SSSPProgram(source), EdgeStreamRouter(), name="sssp")
    job = TornadoJob(app, TornadoConfig(**config_kwargs))
    job.feed(edge_stream(edges, UniformRate(rate=1000.0)))
    return job


def distances(result):
    return {vid: value.distance for vid, value in result.values.items()
            if not math.isinf(value.distance)}


def reference(edges=EDGES, source="s"):
    return {v: d for v, d in reference_sssp(edges, source).items()
            if not math.isinf(d)}


class TestSSSPExactness:
    def test_query_matches_dijkstra(self):
        job = make_job()
        job.run_for(2.0)
        result = job.query_and_wait()
        assert distances(result) == reference()

    def test_synchronous_mode_matches_dijkstra(self):
        job = make_job(delay_bound=1)
        job.run_for(2.0)
        result = job.query_and_wait()
        assert distances(result) == reference()

    def test_small_delay_bound_matches_dijkstra(self):
        job = make_job(delay_bound=2)
        job.run_for(2.0)
        result = job.query_and_wait()
        assert distances(result) == reference()

    def test_full_activation_query(self):
        job = make_job()
        job.run_for(2.0)
        result = job.query_and_wait(full_activation=True)
        assert distances(result) == reference()

    def test_disk_backend_same_answer(self):
        job = make_job(storage_backend="disk")
        job.run_for(2.0)
        result = job.query_and_wait()
        assert distances(result) == reference()

    def test_single_processor(self):
        job = make_job(n_processors=1)
        job.run_for(2.0)
        result = job.query_and_wait()
        assert distances(result) == reference()

    def test_result_ready_once_stop_loops_are_acknowledged(self):
        """The wait ends one StopLoop round trip after the ingester holds
        BranchDone, not after a fixed grace period, and by then every
        processor has stopped the branch and written its segment."""
        job = make_job()
        job.run_for(2.0)
        result = job.wait_for_query(job.query())
        latency = job.config.net_latency
        assert job.sim.now - result.completed_at <= 3 * latency + 1e-4
        assert result.loop not in job.master.transport.pending_by_tag
        for processor in job.processors:
            assert result.loop in processor.loop_archive
        assert distances(result) == reference()

    def test_master_crash_before_stop_acks_keeps_the_result_whole(self):
        """A master crash right after a branch's StopLoop broadcast clears
        the tag the wait reads.  The recovered master stops the branch
        again, and the wait ends only once those stops are acknowledged,
        so the result equals the fault-free one."""
        def all_distances(result):
            return {vid: value.distance
                    for vid, value in result.values.items()}

        clean = make_job()
        clean.run_for(2.0)
        expected = all_distances(clean.wait_for_query(clean.query()))

        job = make_job()
        job.run_for(2.0)
        query_id = job.query()
        master = job.master
        pending = master.transport.pending_by_tag
        job.run_until(lambda: any(record.done and record.loop in pending
                                  for record in master.durable.branches
                                  .values()))
        master.fail()
        job.sim.schedule(0.05, master.recover)
        result = job.wait_for_query(query_id)
        assert all_distances(result) == expected
        assert distances(result) == reference()


class TestSSSPEvolution:
    def test_query_after_more_edges(self):
        """A second query sees the edges that arrived after the first."""
        extra = [("f", "g"), ("s", "g")]
        job = make_job()
        job.run_for(2.0)
        first = job.query_and_wait()
        assert "g" not in distances(first)
        job.feed(edge_stream(extra, UniformRate(rate=1000.0,
                                                start=job.sim.now)))
        job.run_for(2.0)
        second = job.query_and_wait()
        assert distances(second) == reference(EDGES + extra)

    def test_edge_deletion_recomputes(self):
        """Retracting an edge raises distances that relied on it."""
        from repro.streams.model import REMOVE_EDGE, StreamTuple

        job = make_job()
        job.run_for(2.0)
        before = distances(job.query_and_wait())
        assert before["e"] == 2.0  # via s->b->e
        retraction = StreamTuple(job.sim.now + 0.01, REMOVE_EDGE,
                                 ("b", "e"), weight=-1)
        job.feed([retraction])
        job.run_for(2.0)
        after = distances(job.query_and_wait())
        remaining = [e for e in EDGES if e != ("b", "e")]
        assert after == reference(remaining)
        assert after["e"] == 4.0  # now via s->a->c->d->e

    def test_weighted_edges(self):
        weighted = [("s", "a", 5.0), ("s", "b", 1.0), ("b", "a", 1.0),
                    ("a", "c", 1.0)]
        job = make_job(edges=weighted)
        job.run_for(2.0)
        result = job.query_and_wait()
        assert distances(result) == {"s": 0.0, "b": 1.0, "a": 2.0, "c": 3.0}

    def test_main_loop_approximation_tracks_inputs(self):
        """The main loop's in-memory distances converge to the truth even
        without any query (the approximation of paper §3.3)."""
        job = make_job()
        job.run_for(5.0)
        approx = {vid: value.distance
                  for vid, value in job.main_values().items()
                  if not math.isinf(value.distance)}
        assert approx == reference()


class TestLoopMetrics:
    def test_synchronous_loop_sends_no_prepares(self):
        """Paper Table 2: with B=1 the execution is fully driven by
        termination notices and no PREPARE messages are needed."""
        job = make_job(delay_bound=1)
        job.run_for(2.0)
        job.query_and_wait()
        assert job.total_prepares == 0

    def test_async_loop_sends_prepares(self):
        job = make_job(delay_bound=65536)
        job.run_for(2.0)
        job.query_and_wait()
        assert job.total_prepares > 0

    def test_branch_latency_positive_and_recorded(self):
        job = make_job()
        job.run_for(2.0)
        result = job.query_and_wait()
        assert result.latency > 0
        record = job.branch_record(result.query_id)
        assert record.done
        assert record.converged_at is not None

    def test_iteration_times_recorded_for_branch(self):
        # Batch mode: the main loop only accumulates inputs, so the branch
        # computes everything from scratch and needs several iterations.
        job = make_job(delay_bound=1, main_loop_mode="batch",
                       merge_policy="always")
        job.run_for(2.0)
        result = job.query_and_wait(full_activation=True)
        assert distances(result) == reference()
        times = job.branch_iteration_times(result.query_id)
        assert len(times) >= 3  # chain s->...->f needs multiple rounds
        iterations = [i for i, _t in times]
        assert iterations == sorted(iterations)

    def test_queries_do_not_disturb_main_loop(self):
        job = make_job()
        job.run_for(2.0)
        first = job.query_and_wait()
        second = job.query_and_wait()
        assert distances(first) == distances(second)
