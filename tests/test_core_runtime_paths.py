"""Targeted tests for subtle runtime paths: merge policies, branch
isolation, duplicate control messages, loop identity."""

import math

from repro.algorithms.graph_common import EdgeStreamRouter
from repro.algorithms.sssp import SSSPProgram
from repro.core import Application, TornadoConfig, TornadoJob
from repro.core.messages import MAIN_LOOP, ForkBranch
from repro.core.vertex import VertexContext, VertexProgram
from repro.streams import UniformRate, edge_stream

EDGES = [("s", "a"), ("a", "b"), ("b", "c"), ("s", "d"), ("d", "c")]


def make_job(**config_kwargs):
    config_kwargs.setdefault("n_processors", 2)
    config_kwargs.setdefault("report_interval", 0.01)
    config_kwargs.setdefault("storage_backend", "memory")
    app = Application(SSSPProgram("s"), EdgeStreamRouter(), name="sssp")
    job = TornadoJob(app, TornadoConfig(**config_kwargs))
    job.feed(edge_stream(EDGES, UniformRate(rate=1000.0)))
    return job


class TestMergePolicies:
    def test_quiescent_merge_improves_main_loop(self):
        """With no inputs during the branch run, the branch results merge
        back and appear as main-loop versions at τ+B."""
        job = make_job(merge_policy="if_quiescent", delay_bound=4)
        job.run_for(2.0)  # stream exhausted, main loop quiescent
        result = job.query_and_wait()
        record = job.branch_record(result.query_id)
        job.run_for(1.0)
        assert record.merged
        # Merged versions exist in the main loop at a high iteration.
        found = job.store.get_version(MAIN_LOOP, "c")
        assert found is not None

    def test_never_policy_skips_merge(self):
        job = make_job(merge_policy="never")
        job.run_for(2.0)
        result = job.query_and_wait()
        assert not job.branch_record(result.query_id).merged

    def test_merge_skipped_when_inputs_arrive(self):
        """if_quiescent: inputs during the branch run veto the merge."""
        job = make_job(merge_policy="if_quiescent",
                       main_loop_mode="batch")
        job.run_until(lambda: job.ingester.tuples_ingested >= 2)
        query = job.query(full_activation=True)
        # The rest of the stream keeps arriving during the branch run.
        result = job.wait_for_query(query)
        record = job.branch_record(result.query_id)
        assert not record.merged


class TestBranchIsolation:
    def test_two_branches_have_independent_results(self):
        job = make_job()
        job.run_for(2.0)
        first = job.query_and_wait()
        extra = edge_stream([("c", "e")], UniformRate(
            rate=1000.0, start=job.sim.now))
        job.feed(extra)
        job.run_for(1.0)
        second = job.query_and_wait()
        assert "e" not in first.values
        assert "e" in second.values
        # The first branch's stored results are untouched.
        refetched = job.result(first.query_id)
        assert "e" not in refetched.values

    def test_duplicate_fork_notice_ignored(self):
        job = make_job()
        job.run_for(2.0)
        result = job.query_and_wait()
        record = job.branch_record(result.query_id)
        processor = job.processors[0]
        before = dict(processor.loop_archive)
        processor.deliver(ForkBranch(record.loop, 0, -1, False), "test")
        job.run_for(0.2)
        # A re-fork of a stopped loop must not corrupt the archived totals
        # of the finished branch.
        assert processor.loop_archive == before

    def test_stale_fork_after_stop_is_ignored(self):
        """A ForkBranch re-sent after its branch's StopLoop (a crash wiped
        the dedup window that would have dropped it) must not re-create
        the branch: the zombie's commits would land in the finished
        branch's result namespace."""
        job = make_job()
        job.run_for(2.0)
        result = job.query_and_wait()
        record = job.branch_record(result.query_id)
        # The main loop moves on, so a zombie branch would compute
        # something new.
        job.feed(edge_stream([("c", "e"), ("s", "e")], UniformRate(
            rate=1000.0, start=job.sim.now)))
        job.run_for(1.0)
        before = job.store.snapshot(record.loop)
        for processor in job.processors:
            processor.deliver(ForkBranch(record.loop, 0, -1, True), "test")
        job.run_for(0.5)
        assert all(record.loop not in processor.loops
                   for processor in job.processors)
        assert job.store.snapshot(record.loop) == before
        assert job.result(result.query_id).values == result.values


class TestLoopIdentity:
    def test_programs_see_loop_names(self):
        seen = []

        class Spy(VertexProgram):
            def gather(self, ctx: VertexContext, source, delta):
                seen.append(ctx.get_loop())
                return False

            def scatter(self, ctx):
                pass

        class SpyRouter:
            def route(self, tup):
                yield "only", __import__(
                    "repro.core.vertex", fromlist=["Delta"]).Delta(
                        tup.kind, tup.payload)

        app = Application(Spy(), SpyRouter(), name="spy")
        job = TornadoJob(app, TornadoConfig(
            n_processors=1, storage_backend="memory",
            report_interval=0.01))
        job.feed(edge_stream([("x", "y")], UniformRate(rate=100.0)))
        job.run_for(1.0)
        assert MAIN_LOOP in seen

    def test_branch_loop_counters_archived_after_stop(self):
        job = make_job()
        job.run_for(2.0)
        result = job.query_and_wait(full_activation=True)
        record = job.branch_record(result.query_id)
        job.run_for(0.5)
        totals = job.loop_totals(record.loop)
        assert totals["commits"] > 0
        # Loop state itself is gone from every processor.
        assert all(record.loop not in p.loops for p in job.processors)


class TestStoreHousekeeping:
    def test_truncation_keeps_queries_consistent(self):
        job = make_job()
        job.run_for(2.0)
        job.query_and_wait()
        frontier = job.main_frontier()
        dropped = job.store.truncate_before(MAIN_LOOP, frontier - 1)
        result = job.query_and_wait()
        distances = {vid: v.distance for vid, v in result.values.items()
                     if not math.isinf(v.distance)}
        assert distances["c"] == 2.0  # s -> d -> c
        assert dropped >= 0
