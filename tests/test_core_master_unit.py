"""Unit-level tests for the master, using stub processor actors."""

import math

from repro.core import TornadoConfig
from repro.core.master import Master, MasterDurableState
from repro.core.messages import (MAIN_LOOP, ForkBranch, IterationTerminated,
                                 ProcessorRecovered, ProgressReport,
                                 QueryRequest, RecoverLoops, StopLoop)
from repro.core.partition import PartitionScheme
from repro.core.transport import ReliableEndpoint
from repro.simulator import Actor, Network, Simulator
from repro.storage import CheckpointManifest


class StubProcessor(Actor):
    """Records every payload the master sends it."""

    def __init__(self, sim, name, network):
        super().__init__(sim, name)
        self.transport = ReliableEndpoint(sim, network, name)
        self.received = []

    def handle(self, message, sender):
        payload = self.transport.on_message(message, sender)
        if payload is not None:
            self.received.append(payload)
        self.transport.flush_acks()
        return 0.0

    def of_type(self, kind):
        return [p for p in self.received if isinstance(p, kind)]


class StubIngester(StubProcessor):
    pass


def make_master(n_processors=2, **config_kwargs):
    config_kwargs.setdefault("master_cost", 0.0)
    sim = Simulator()
    network = Network(sim, latency=1e-4)
    names = [f"p{i}" for i in range(n_processors)]
    processors = [StubProcessor(sim, name, network) for name in names]
    ingester = StubIngester(sim, "ing", network)
    master = Master(sim, "master", TornadoConfig(**config_kwargs), network,
                    names, "ing", CheckpointManifest(),
                    MasterDurableState(), PartitionScheme(names))
    return sim, master, processors, ingester


def report(processor, seq, counters, watermark=math.inf, loop=MAIN_LOOP):
    return ProgressReport(loop=loop, processor=processor, seq=seq,
                          counters=counters, watermark=watermark)


class TestMasterTermination:
    def test_broadcasts_termination_notice(self):
        sim, master, processors, _ing = make_master()
        for index, processor in enumerate(processors):
            processor.transport.send("master", report(
                processor.name, 1, {0: (1, 0, 0)}))
        sim.run(until=2.0)
        for processor in processors:
            notices = processor.of_type(IterationTerminated)
            assert notices and notices[-1].iteration == 0

    def test_no_termination_until_all_report(self):
        sim, master, processors, _ing = make_master()
        processors[0].transport.send("master", report("p0", 1,
                                                      {0: (1, 0, 0)}))
        sim.run(until=2.0)
        assert processors[0].of_type(IterationTerminated) == []

    def test_termination_times_recorded(self):
        sim, master, processors, _ing = make_master()
        for processor in processors:
            processor.transport.send("master", report(
                processor.name, 1, {0: (1, 1, 1), 1: (1, 0, 0)}))
        sim.run(until=2.0)
        iterations = [i for i, _t in master.termination_times[MAIN_LOOP]]
        assert iterations == [0, 1]


class TestMasterQueries:
    def test_query_forks_branch_everywhere(self):
        sim, master, processors, ing = make_master()
        ing.transport.send("master", QueryRequest(1, 0.0))
        sim.run(until=2.0)
        for processor in processors:
            forks = processor.of_type(ForkBranch)
            assert len(forks) == 1
            assert forks[0].loop == "branch-1"

    def test_duplicate_query_ids_ignored(self):
        sim, master, processors, ing = make_master()
        ing.transport.send("master", QueryRequest(1, 0.0))
        ing.transport.send("master", QueryRequest(1, 0.0))
        sim.run(until=2.0)
        assert len(processors[0].of_type(ForkBranch)) == 1

    def test_branch_converges_and_stops(self):
        sim, master, processors, ing = make_master()
        ing.transport.send("master", QueryRequest(1, 0.0))
        sim.run(until=1.0)
        for processor in processors:
            processor.transport.send("master", report(
                processor.name, 10, {0: (1, 0, 0)}, loop="branch-1"))
        sim.run(until=3.0)
        for processor in processors:
            assert processor.of_type(StopLoop)
        assert master.durable.branches["branch-1"].done
        done = ing.received[-1]
        assert getattr(done, "query_id", None) == 1


class TestMasterRecoveryProtocol:
    def test_recovered_processor_gets_loop_list(self):
        sim, master, processors, ing = make_master()
        # Terminate iteration 3 of main first.
        for processor in processors:
            processor.transport.send("master", report(
                processor.name, 1,
                {0: (1, 1, 1), 1: (1, 1, 1), 2: (1, 1, 1), 3: (1, 0, 0)}))
        sim.run(until=1.0)
        processors[0].transport.send("master", ProcessorRecovered("p0"))
        sim.run(until=2.0)
        recover = processors[0].of_type(RecoverLoops)
        assert recover
        loops = dict(recover[0].loops)
        assert loops[MAIN_LOOP] == 3

    def test_recovery_forgets_processor_views(self):
        sim, master, processors, _ing = make_master()
        for processor in processors:
            processor.transport.send("master", report(
                processor.name, 5, {0: (1, 0, 0)}))
        sim.run(until=1.0)
        processors[0].transport.send("master", ProcessorRecovered("p0"))
        sim.run(until=2.0)
        tracker = master.trackers[MAIN_LOOP]
        assert not tracker.all_reported()
        # Every view is invalidated, not just the restarted processor's:
        # the peers owe repair traffic their old reports cannot show, so
        # nothing may terminate or converge until everyone re-reports.
        processors[0].transport.send("master", report("p0", 1,
                                                      {0: (1, 0, 0)}))
        sim.run(until=3.0)
        assert not tracker.all_reported()
        for processor in processors[1:]:
            processor.transport.send("master", report(
                processor.name, 6, {0: (1, 0, 0)}))
        sim.run(until=4.0)
        assert tracker.all_reported()

    def test_master_failure_rebuilds_from_durable_state(self):
        sim, master, processors, ing = make_master()
        for processor in processors:
            processor.transport.send("master", report(
                processor.name, 1, {0: (1, 0, 0)}))
        sim.run(until=1.0)
        master.fail()
        master.recover()
        sim.run(until=2.0)
        # Re-broadcast of the durable frontier.
        notices = processors[0].of_type(IterationTerminated)
        assert notices and notices[-1].iteration == 0
