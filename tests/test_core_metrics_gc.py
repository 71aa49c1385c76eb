"""Tests for the job's store GC."""

from repro.algorithms.graph_common import EdgeStreamRouter
from repro.algorithms.sssp import SSSPProgram
from repro.core import Application, TornadoConfig, TornadoJob
from repro.streams import UniformRate, edge_stream

EDGES = [("s", "a"), ("a", "b"), ("b", "c"), ("s", "c")]


class TestStoreGC:
    def make_job(self):
        app = Application(SSSPProgram("s"), EdgeStreamRouter(),
                          name="sssp")
        job = TornadoJob(app, TornadoConfig(n_processors=2,
                                            storage_backend="memory",
                                            report_interval=0.01))
        job.feed(edge_stream(EDGES, UniformRate(rate=1000.0)))
        job.run_for(1.0)
        return job

    def test_gc_drops_old_branches(self):
        job = self.make_job()
        queries = [job.query_and_wait().query_id for _ in range(4)]
        removed = job.gc(keep_last_branches=1)
        assert removed > 0
        # The newest branch stays readable; the oldest is gone.
        assert job.result(queries[-1]).values
        assert job.result(queries[0]).values == {}

    def test_gc_keeps_requested_count(self):
        job = self.make_job()
        for _ in range(3):
            job.query_and_wait()
        job.gc(keep_last_branches=3)
        kept = [record.loop for record in job.durable.branches.values()
                if job.store.version_count(record.loop)]
        assert len(kept) == 3

    def test_gc_truncates_main_versions(self):
        job = self.make_job()
        job.query_and_wait()
        before = job.store.version_count("main")
        job.gc(keep_last_branches=8, truncate_main_versions=True)
        after = job.store.version_count("main")
        assert after <= before
        # Approximation still intact after truncation.
        result = job.query_and_wait()
        assert result.values
