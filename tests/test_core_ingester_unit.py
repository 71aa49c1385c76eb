"""Unit-level tests for the ingester, with a stub master."""

from repro.algorithms.graph_common import EdgeStreamRouter
from repro.algorithms.sssp import SSSPProgram
from repro.core import Application, TornadoConfig
from repro.core.ingester import Ingester
from repro.core.messages import (BranchDone, QueryRejected, QueryRequest,
                                 VertexInput)
from repro.core.partition import PartitionScheme
from repro.core.transport import ReliableEndpoint
from repro.simulator import Actor, Network, Simulator
from repro.streams import UniformRate, edge_stream


class Sink(Actor):
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


def make_ingester():
    sim = Simulator()
    network = Network(sim, latency=1e-4)
    master = Sink(sim, "master", network)
    processor = Sink(sim, "p0", network)
    app = Application(SSSPProgram("s"), EdgeStreamRouter(), name="sssp")
    ingester = Ingester(sim, "ing", TornadoConfig(control_cost=0.0), app,
                        PartitionScheme(["p0"]), network, "master")
    return sim, ingester, master, processor


class TestIngestion:
    def test_routes_inputs_to_owners(self):
        sim, ingester, _master, processor = make_ingester()
        ingester.schedule_stream(edge_stream([("a", "b"), ("b", "c")],
                                             UniformRate(rate=100.0)))
        sim.run(until=1.0)
        inputs = processor.of_type(VertexInput)
        assert [i.vertex for i in inputs] == ["a", "b"]
        assert ingester.tuples_ingested == 2
        assert ingester.inputs_routed == 2

    def test_late_feed_uses_current_time(self):
        sim, ingester, _master, processor = make_ingester()
        sim.schedule(5.0, lambda: None)
        sim.run()
        # Timestamps in the past are clamped to "now".
        count = ingester.schedule_stream(
            edge_stream([("a", "b")], UniformRate(rate=100.0)))
        assert count == 1
        sim.run(until=6.0)
        assert len(processor.of_type(VertexInput)) == 1


class TestQueries:
    def test_query_request_reaches_master(self):
        sim, ingester, master, _p = make_ingester()
        query_id = ingester.issue_query()
        sim.run(until=1.0)
        requests = master.of_type(QueryRequest)
        assert [r.query_id for r in requests] == [query_id]

    def test_branch_done_recorded(self):
        sim, ingester, _master, _p = make_ingester()
        ingester.deliver(BranchDone("branch-1", 7, 4, 0.5), "master")
        sim.run(until=0.5)
        assert ingester.query_done(7)
        assert ingester.results[7].converged_iteration == 4

    def test_rejection_recorded(self):
        sim, ingester, _master, _p = make_ingester()
        ingester.deliver(QueryRejected(9, 0.1, "capacity"), "master")
        sim.run(until=0.5)
        assert 9 in ingester.rejections
        assert not ingester.query_done(9)
