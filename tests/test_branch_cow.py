"""Copy-on-write branch forks: a branch shares the main loop's vertex
states until one side writes, so a query's copying tracks what its branch
touches rather than the size of the graph — and a result, once returned,
never moves with the main loop."""

from __future__ import annotations

import math

from repro.algorithms.graph_common import EdgeStreamRouter
from repro.algorithms.sssp import SSSPProgram
from repro.core import MAIN_LOOP, Application, TornadoConfig, TornadoJob
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


def test_a_stop_publishes_the_live_state_not_the_last_commit():
    """``scatter`` clears ``retracted`` after the commit stored its
    version, so a vertex whose last main-loop commit retracted an edge
    lives on with a state its newest main-loop version does not show.  A
    branch that shares the vertex and stops must return the live state
    (the paper's branch starts from it), not fall through to that
    version."""
    program = SSSPProgram("s")
    job = TornadoJob(Application(program, EdgeStreamRouter(), name="sssp"),
                     TornadoConfig(n_processors=2, storage_backend="memory",
                                   report_interval=0.01,
                                   merge_policy="never"))
    job.feed(stream_from([(ADD_EDGE, edge, 1) for edge in
                          [("s", "a", 1.0), ("a", "b", 1.0),
                           ("b", "c", 1.0), ("s", "d", 2.0)]],
                         UniformRate(1e4)))
    absorb(job)
    job.feed(stream_from([(REMOVE_EDGE, ("a", "b", 1.0), -1)],
                         UniformRate(1e4, start=job.sim.now)))
    absorb(job)
    job.run_for(0.01)
    committed = job.store.get(MAIN_LOOP, "a")[0]
    assert committed.retracted == {"b"}
    owner = next(processor for processor in job.processors
                 if "a" in processor.loops[MAIN_LOOP].vertices)
    live = owner.loops[MAIN_LOOP].vertices["a"].value
    assert live.retracted == set()

    result = job.query_and_wait()
    # The branch committed nothing: the stop published every vertex from
    # the state it shared, at the main loop's iteration.
    assert job.loop_totals(result.loop)["commits"] == 0
    assert job.store.get_version(result.loop, "a")[0] \
        == job.store.get_version(MAIN_LOOP, "a")[0]
    assert result.values["a"].retracted == set()
    assert repr(result.values["a"]) == repr(program.snapshot_value(live))
    assert result.values["a"].distance == 1.0
    assert result.values["b"].distance == math.inf
