"""Unit tests for progress tracking and termination detection."""

import math

from repro.algorithms import EdgeStreamRouter
from repro.algorithms.sssp import SSSPProgram
from repro.core import Application, TornadoConfig, TornadoJob
from repro.core.messages import ProgressReport
from repro.core.progress import ProgressTracker, passive
from repro.streams import UniformRate, edge_stream


def report(processor, seq, counters, watermark=math.inf, loop="main",
           inputs=0, unacked=0, buffered=0):
    return ProgressReport(loop=loop, processor=processor, seq=seq,
                          counters=counters, watermark=watermark,
                          inputs_gathered=inputs, unacked=unacked,
                          buffered=buffered)


class TestReportHandling:
    def test_stale_reports_rejected(self):
        tracker = ProgressTracker("main", ["p0"])
        assert tracker.apply_report(report("p0", 2, {0: (1, 0, 0)}))
        assert not tracker.apply_report(report("p0", 1, {}))
        assert tracker.totals(0) == (1, 0, 0)

    def test_unknown_processor_ignored(self):
        tracker = ProgressTracker("main", ["p0"])
        assert not tracker.apply_report(report("ghost", 1, {}))

    def test_totals_aggregate_processors(self):
        tracker = ProgressTracker("main", ["p0", "p1"])
        tracker.apply_report(report("p0", 1, {0: (2, 3, 1)}))
        tracker.apply_report(report("p1", 1, {0: (1, 1, 3)}))
        assert tracker.totals(0) == (3, 4, 4)
        assert tracker.total_commits() == 3


class TestTermination:
    def test_no_advance_until_all_reported(self):
        tracker = ProgressTracker("main", ["p0", "p1"])
        tracker.apply_report(report("p0", 1, {0: (1, 0, 0)}))
        assert tracker.advance() == []
        tracker.apply_report(report("p1", 1, {}))
        assert tracker.advance() == [0]

    def test_watermark_blocks_frontier(self):
        tracker = ProgressTracker("main", ["p0"])
        tracker.apply_report(report("p0", 1, {0: (1, 2, 0)}, watermark=0))
        assert tracker.advance() == []
        tracker.apply_report(report("p0", 2, {0: (1, 2, 0)}, watermark=1))
        assert tracker.advance() == [0]

    def test_inflight_messages_block_next_iteration(self):
        tracker = ProgressTracker("main", ["p0"])
        # Iteration 0 committed and sent 2 updates; none gathered yet.
        tracker.apply_report(report("p0", 1, {0: (1, 2, 0), 1: (1, 0, 0)},
                                    watermark=math.inf))
        # 0 terminates (its own sends do not block it)...
        assert tracker.advance() == [0]
        # ...but 1 cannot terminate until the sends of 0 are gathered.
        assert tracker.advance() == []
        tracker.apply_report(report("p0", 2, {0: (1, 2, 2), 1: (1, 0, 0)}))
        assert tracker.advance() == [1]

    def test_frontier_never_passes_activity(self):
        tracker = ProgressTracker("main", ["p0"])
        tracker.apply_report(report("p0", 1, {0: (1, 0, 0)}))
        assert tracker.advance() == [0]
        # No activity at iteration 1 -> frontier stays at 1.
        assert tracker.advance() == []
        assert tracker.frontier == 1

    def test_multiple_iterations_terminate_at_once(self):
        tracker = ProgressTracker("main", ["p0"])
        tracker.apply_report(report("p0", 1, {
            0: (1, 1, 1), 1: (1, 1, 1), 2: (1, 0, 0)}))
        assert tracker.advance() == [0, 1, 2]
        assert tracker.last_terminated == 2


class TestConvergence:
    def test_quiescent_loop_converges(self):
        tracker = ProgressTracker("b", ["p0", "p1"])
        tracker.apply_report(report("p0", 1, {0: (1, 1, 0)}, loop="b"))
        tracker.apply_report(report("p1", 1, {0: (0, 0, 1), 1: (1, 0, 0)},
                                    loop="b"))
        tracker.advance()
        assert tracker.converged

    def test_inflight_update_prevents_convergence(self):
        tracker = ProgressTracker("b", ["p0"])
        # One session message still unacknowledged: work is in flight.
        tracker.apply_report(report("p0", 1, {0: (1, 1, 0)}, loop="b",
                                    unacked=1))
        tracker.advance()
        assert not tracker.converged
        # Once the ack lands (and nothing else is pending), quiescent.
        tracker.apply_report(report("p0", 2, {0: (1, 1, 1)}, loop="b"))
        assert tracker.converged

    def test_buffered_updates_prevent_convergence(self):
        tracker = ProgressTracker("b", ["p0"])
        tracker.apply_report(report("p0", 1, {0: (1, 1, 1)}, loop="b",
                                    buffered=2))
        tracker.advance()
        assert not tracker.converged

    def test_pending_work_prevents_convergence(self):
        tracker = ProgressTracker("b", ["p0"])
        tracker.apply_report(report("p0", 1, {0: (1, 0, 0)}, watermark=1,
                                    loop="b"))
        tracker.advance()
        assert not tracker.converged

    def test_zero_work_branch_converges(self):
        """A fork that activates nothing converges as soon as every
        processor has reported once."""
        tracker = ProgressTracker("b", ["p0", "p1"])
        tracker.apply_report(report("p0", 1, {}, loop="b"))
        assert not tracker.converged
        tracker.apply_report(report("p1", 1, {}, loop="b"))
        assert tracker.converged

    def test_forget_all_blocks_until_fresh_report(self):
        tracker = ProgressTracker("b", ["p0"])
        tracker.apply_report(report("p0", 5, {0: (1, 0, 0)}, loop="b"))
        tracker.advance()
        assert tracker.converged
        tracker.forget_all()
        assert not tracker.converged
        assert tracker.advance() == []
        # Fresh post-recovery report (seq restarts) is accepted.
        assert tracker.apply_report(report("p0", 1, {0: (1, 0, 0)},
                                           loop="b"))
        assert tracker.converged

    def test_inputs_tracked_for_merge_decision(self):
        tracker = ProgressTracker("main", ["p0", "p1"])
        tracker.apply_report(report("p0", 1, {}, inputs=10))
        tracker.apply_report(report("p1", 1, {}, inputs=5))
        assert tracker.total_inputs() == 15


class TestPassive:
    def test_one_definition_of_no_pending_work(self):
        assert passive(math.inf, 0, 0)
        assert not passive(3, 0, 0)
        assert not passive(math.inf, 1, 0)
        assert not passive(math.inf, 0, 1)


class TestQuiescent:
    def test_input_on_the_wire_is_not_quiescent(self):
        """An ingester input sent but not yet acknowledged is work the
        main loop has not seen: the processors alone read idle."""
        job = TornadoJob(
            Application(SSSPProgram("s"), EdgeStreamRouter(), name="sssp"),
            TornadoConfig(n_processors=2, seed=7))
        job.feed(edge_stream([("s", "a"), ("a", "b")], UniformRate(1e6)))
        job.run_until(job.quiescent)
        job.feed(edge_stream([("b", "c")], UniformRate(1e6)))
        job.run_until(lambda: job.ingester.tuples_ingested >= 3)
        assert job.ingester.transport.unacked
        assert not job.quiescent()
        job.run_until(job.quiescent)
        assert job.ingester.transport.unacked == 0
