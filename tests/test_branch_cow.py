"""Copy-on-write branch forks: a branch shares the main loop's vertex
states until one side writes, so a query's copying tracks what its branch
touches rather than the size of the graph — and a result, once returned,
never moves with the main loop."""

from __future__ import annotations

from repro.algorithms.graph_common import EdgeStreamRouter
from repro.algorithms.sssp import SSSPProgram
from repro.core import Application, TornadoConfig, TornadoJob
from repro.core.processor import Processor
from repro.datagen import livejournal_like
from repro.streams import (ADD_EDGE, REMOVE_EDGE, UniformRate, edge_stream,
                           stream_from)


class CountingSSSP(SSSPProgram):
    """SSSP that counts its value copies."""

    snapshots = 0

    def snapshot_value(self, value):
        self.snapshots += 1
        return super().snapshot_value(value)


def absorb(job: TornadoJob) -> None:
    ingester = job.ingester
    job.run_until(lambda: ingester.pending_inputs() == 0
                  and ingester.transport.unacked == 0)
    while not job.quiescent():
        job.run_for(1e-3)


def test_fork_cost_tracks_the_branch_not_the_graph(monkeypatch):
    materialised = [0]
    materialise = Processor._materialise

    def counting_materialise(self, branch, vertex_id, shared):
        materialised[0] += 1
        return materialise(self, branch, vertex_id, shared)

    monkeypatch.setattr(Processor, "_materialise", counting_materialise)
    edges = livejournal_like(1500, 5000, seed=0)
    program = CountingSSSP(0, max_distance=3000.0)
    job = TornadoJob(Application(program, EdgeStreamRouter(), name="sssp"),
                     TornadoConfig(n_processors=4, storage_backend="memory",
                                   report_interval=0.02))
    job.feed(edge_stream(edges, UniformRate(1e5)))
    absorb(job)
    n_vertices = len(job.main_values())
    assert n_vertices >= 1000

    first = job.query_and_wait()
    assert len(first.values) == n_vertices
    # Back to back, no input in between: the main loop is unchanged, so
    # the fork shares everything it does not activate and the stop
    # re-publishes the versions the first query made.  (The eager fork
    # copied every vertex twice: once at the fork, once at the stop.)
    program.snapshots = materialised[0] = 0
    second = job.query_and_wait()
    assert second.values == first.values
    assert program.snapshots <= 3 * materialised[0] < n_vertices // 10

    # A held result does not move when the main loop does.
    held = {vertex: repr(value) for vertex, value in second.values.items()}
    live = set(edges)
    victims = [edge for edge in edges[:400:4] if edge in live]
    extra = [(vertex, vertex + 1) for vertex in range(1, 200, 7)]
    job.feed(stream_from(
        [(REMOVE_EDGE, edge, -1) for edge in victims]
        + [(ADD_EDGE, edge, 1) for edge in extra],
        UniformRate(1e5, start=job.sim.now)))
    absorb(job)
    third = job.query_and_wait()
    assert third.values != second.values
    assert {vertex: repr(value)
            for vertex, value in second.values.items()} == held
    assert {vertex: repr(value) for vertex, value
            in job.result(second.query_id).values.items()} == held
