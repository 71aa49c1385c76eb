"""Unit tests for progress tracking and termination detection."""

import math

from repro.algorithms import EdgeStreamRouter
from repro.algorithms.sssp import SSSPProgram, reference_sssp
from repro.core import Application, TornadoConfig, TornadoJob
from repro.core.master import Master, MasterDurableState
from repro.core.messages import (Envelope, ProgressReport, QueryRequest,
                                 StopLoop, TransportAck)
from repro.core.partition import PartitionScheme
from repro.core.progress import ProgressTracker, passive
from repro.simulator import Network, Simulator
from repro.storage import CheckpointManifest
from repro.streams import UniformRate, edge_stream
from tests.test_core_master_unit import StubProcessor
from tests.test_core_transport import record_sends


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


EDGES = [("s", "a"), ("s", "b"), ("a", "c"), ("b", "c"),
         ("c", "d"), ("d", "e"), ("b", "e"), ("e", "f")]


def sssp_job(**config_kwargs):
    config_kwargs.setdefault("n_processors", 3)
    config_kwargs.setdefault("report_interval", 0.01)
    job = TornadoJob(
        Application(SSSPProgram("s"), EdgeStreamRouter(), name="sssp"),
        TornadoConfig(storage_backend="memory", **config_kwargs))
    job.feed(edge_stream(EDGES, UniformRate(1000.0)))
    return job


def finite(result):
    return {vid: value.distance for vid, value in result.values.items()
            if not math.isinf(value.distance)}


class TestReportsAreState:
    def test_tick_retransmits_reports_lost_to_a_partition(self):
        """Every report of three intervals is dropped while a branch
        runs; the tick re-sends the state and the branch converges."""
        job = sssp_job()
        job.run_for(2.0)
        query_id = job.query(full_activation=True)
        job.run_until(lambda: all("branch-1" in processor.loops
                                  for processor in job.processors))
        for processor in job.processors:
            job.network.block(processor.name, "master")
        dropped = job.network.stats.dropped
        job.run_for(3 * job.config.report_interval)
        assert job.network.stats.dropped - dropped >= 3 * len(job.processors)
        assert not job.master.durable.branches["branch-1"].done
        for processor in job.processors:
            job.network.unblock(processor.name, "master")
        result = job.wait_for_query(query_id, max_events=2_000)
        expected = {v: d for v, d in reference_sssp(EDGES, "s").items()
                    if not math.isinf(d)}
        assert finite(result) == expected

    def test_no_envelope_carries_a_report(self):
        job = sssp_job()
        log = record_sends(job.network)
        job.run_for(2.0)
        job.query_and_wait()
        messages = [message for _src, _dst, message in log]
        assert not [message for message in messages
                    if isinstance(message, Envelope)
                    and isinstance(message.payload, ProgressReport)]
        assert any(isinstance(message, ProgressReport)
                   for message in messages)


class StopReplier(StubProcessor):
    """Answers a ``StopLoop`` in the same dispatch, so its ack rides an
    envelope back to the master instead of going bare."""

    def handle(self, message, sender):
        payload = self.transport.on_message(message, sender)
        if payload is not None:
            self.received.append(payload)
            if isinstance(payload, StopLoop):
                self.transport.send(sender, "stopped")
        self.transport.flush_acks()
        return 0.0


def test_unacked_stops_pruned_by_a_piggybacked_ack():
    sim = Simulator()
    network = Network(sim, latency=1e-4)
    names = ["p0", "p1"]
    processors = [StopReplier(sim, name, network) for name in names]
    StubProcessor(sim, "ing", network)
    master = Master(sim, "master", TornadoConfig(master_cost=0.0), network,
                    names, "ing", CheckpointManifest(), MasterDurableState(),
                    PartitionScheme(names))
    log = record_sends(network)
    processors[0].transport.send("master", QueryRequest(1, 0.0))
    sim.run(until=1.0)
    for processor in processors:
        master.handle(ProgressReport(loop="branch-1",
                                     processor=processor.name, seq=1,
                                     counters={0: (1, 0, 0)},
                                     watermark=math.inf), processor.name)
    assert master.durable.unacked_stops == {"branch-1"}
    sim.run(until=2.0)
    stops = {message.msg_id for _src, _dst, message in log
             if isinstance(message, Envelope)
             and isinstance(message.payload, StopLoop)}
    carried = {message.ack for _src, dst, message in log
               if dst == "master" and isinstance(message, Envelope)}
    bare_acks = {message.msg_id for _src, dst, message in log
                 if dst == "master" and isinstance(message, TransportAck)}
    assert len(stops) == len(processors)
    assert stops <= carried and not stops & bare_acks
    assert master.durable.unacked_stops == set()
    assert "branch-1" not in master.transport.pending_by_tag
