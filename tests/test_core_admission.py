"""Tests for branch-loop admission control, load shedding, and the
ingester's typed backpressure rejection."""

import math

import pytest

from repro.algorithms.sssp import reference_sssp
from repro.core import TornadoConfig, TornadoJob
from repro.errors import AdmissionError, BackpressureError, QueryError
from repro.streams import UniformRate, edge_stream

from .conftest import SSSP_EDGES, sssp_application


def distances(values):
    return {vid: v.distance for vid, v in values.items()
            if not math.isinf(v.distance)}


class TestAdmission:
    def test_queued_queries_all_complete(self, make_job):
        job = make_job(max_concurrent_branches=1)
        queries = [job.query(full_activation=True) for _ in range(4)]
        results = [job.wait_for_query(q) for q in queries]
        expected = {v: d
                    for v, d in reference_sssp(SSSP_EDGES, "s").items()
                    if not math.isinf(d)}
        for result in results:
            assert distances(result.values) == expected

    def test_excess_queries_shed(self, make_job):
        job = make_job(max_concurrent_branches=1,
                       branch_admission="shed")
        first = job.query(full_activation=True)
        second = job.query(full_activation=True)
        result = job.wait_for_query(first)
        assert result.converged_iteration >= 0
        with pytest.raises(QueryError):
            job.wait_for_query(second)
        assert job.master.queries_shed == 1

    def test_shedding_frees_capacity_for_later_queries(self, make_job):
        job = make_job(max_concurrent_branches=1,
                       branch_admission="shed")
        first = job.query(full_activation=True)
        shed = job.query(full_activation=True)
        job.wait_for_query(first)
        job.run_until(lambda: job.query_rejected(shed), max_events=100_000)
        assert job.query_rejected(shed)
        third = job.query(full_activation=True)
        result = job.wait_for_query(third)
        assert result.converged_iteration >= 0

    def test_under_capacity_unaffected(self, make_job):
        job = make_job(max_concurrent_branches=8)
        queries = [job.query(full_activation=True) for _ in range(3)]
        for query in queries:
            job.wait_for_query(query)
        assert job.master.queries_shed == 0

    def test_backlog_preserves_issue_order(self, make_job):
        job = make_job(max_concurrent_branches=1)
        queries = [job.query(full_activation=True) for _ in range(3)]
        for query in queries:
            job.wait_for_query(query)
        records = [job.branch_record(q) for q in queries]
        forked = [record.forked_at for record in records]
        assert forked == sorted(forked)


def unfed_job():
    """A small SSSP job with nothing fed yet."""
    return TornadoJob(sssp_application(), TornadoConfig(
        n_processors=2, report_interval=0.01, storage_backend="memory"))


def sssp_feeds():
    return list(edge_stream(SSSP_EDGES, UniformRate(rate=1000.0)))


class TestTypedAdmissionErrors:
    def test_hierarchy_roots_at_query_error(self):
        for err in (AdmissionError, BackpressureError):
            assert issubclass(err, QueryError)
            assert issubclass(err, AdmissionError)

    def test_backpressure_rejected_without_residue(self):
        job = unfed_job()
        feeds = sssp_feeds()
        assert len(feeds) > 3
        scheduled = job.ingester.tuples_scheduled
        pending = job.sim.pending_events
        with pytest.raises(BackpressureError):
            job.ingester.schedule_stream(feeds, max_pending=3)
        # All-or-nothing: the rejected batch scheduled nothing.
        assert job.ingester.tuples_scheduled == scheduled
        assert job.sim.pending_events == pending

    def test_runtime_feed_backpressure(self):
        job = unfed_job()
        feeds = sssp_feeds()
        bound = len(SSSP_EDGES)
        assert job.ingester.schedule_stream(feeds, max_pending=bound) \
            == len(feeds)
        with pytest.raises(BackpressureError):
            # The initial feed is still pending.
            job.ingester.schedule_stream(feeds, max_pending=bound)
        job.run_for(0.25)  # drains the backlog
        assert job.ingester.pending_inputs() == 0
        assert job.ingester.schedule_stream(feeds[:2],
                                            max_pending=bound) == 2
