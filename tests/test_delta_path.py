"""Delta-path tests (sender-side combiners + batched session I/O).

The session window may reorder, merge and batch session messages, but it
must be *observably* exact: the converged vertex states equal Dijkstra's
on every program — with or without a declared combiner, under arbitrary
kill/recover schedules — and runs are deterministic (byte-identical
traces) under a fixed seed.

The unit tests poke the session window directly: combiner merge
semantics, order preservation without a combiner, and the migration
boundary (a combined-but-unsent scatter must follow a consumer whose
owner flips mid-window, never be dropped).
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.graph_common import EdgeStreamRouter
from repro.algorithms.sssp import SSSPProgram, reference_sssp
from repro.core import Application, TornadoConfig, TornadoJob
from repro.core.messages import MAIN_LOOP, ColumnBatch, VertexUpdate
from repro.streams import UniformRate, edge_stream

NODES = list("sabcdefgh")
ACTORS = ["proc-0", "proc-1", "proc-2", TornadoJob.MASTER]

#: Fixed weighted graph for the chaos/determinism tests (reachable core
#: plus a weighted shortcut so last-wins offer replacement matters).
EDGES_W = [
    ("s", "a", 1.0), ("s", "b", 4.0), ("a", "c", 2.0), ("b", "c", 1.0),
    ("c", "d", 3.0), ("d", "e", 1.0), ("b", "e", 9.0), ("e", "f", 2.0),
    ("f", "g", 1.0), ("d", "g", 7.0), ("a", "h", 5.0), ("h", "d", 1.0),
]


class NoCombineSSSP(SSSPProgram):
    """Same algebra, no declared combiner: the session window must batch
    without merging and keep every update, in send order."""

    update_combiner = None


def make_job(edges, *, combine=True, delay_bound=65536, trace=False,
             rate=1000.0):
    program = (SSSPProgram if combine else NoCombineSSSP)("s")
    app = Application(program, EdgeStreamRouter(), name="sssp")
    job = TornadoJob(app, TornadoConfig(
        n_processors=3, report_interval=0.01, retransmit_timeout=0.1,
        storage_backend="memory", delay_bound=delay_bound,
        trace_enabled=trace))
    job.feed(edge_stream(edges, UniformRate(rate=rate)))
    return job


def final_distances(job):
    return {vid: value.distance for vid, value in job.main_values().items()
            if not math.isinf(value.distance)}


def reference(edges):
    return {v: d for v, d in reference_sssp(edges, "s").items()
            if not math.isinf(d)}


def _dedupe(raw):
    """Drop self-loops and collapse repeated (u, v) pairs keeping the
    last weight — stream semantics overwrite the edge weight in place,
    while Dijkstra's adjacency list would keep (and min over) both."""
    last = {}
    for u, v, w in raw:
        if u != v:
            last[(u, v)] = float(w)
    return [("s", "a", 1.0)] + [(u, v, w) for (u, v), w in last.items()
                                if (u, v) != ("s", "a")]


weighted_graphs = st.lists(
    st.tuples(st.sampled_from(NODES), st.sampled_from(NODES),
              st.integers(min_value=1, max_value=9)),
    min_size=4, max_size=16,
).map(_dedupe)

kill_specs = st.lists(
    st.tuples(
        st.sampled_from(ACTORS),
        st.floats(min_value=0.01, max_value=1.2),   # kill time
        st.floats(min_value=0.05, max_value=0.8),   # downtime
    ),
    min_size=1, max_size=3,
    unique_by=lambda spec: spec[0],
)


# ------------------------------------------------------------ properties
class TestDeltaLegacyEquivalence:
    """Converged distances equal Dijkstra's under random programs and
    random kill/recover schedules."""

    @given(edges=weighted_graphs, combine=st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_random_programs_converge_identically(self, edges, combine):
        job = make_job(edges, combine=combine)
        job.run_for(5.0)
        assert final_distances(job) == reference(edges)

    @given(specs=kill_specs, combine=st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_chaos_schedules_converge_identically(self, specs, combine):
        job = make_job(EDGES_W, combine=combine)
        for actor, at, downtime in specs:
            job.failures.kill_at(at, actor, recover_after=downtime)
        job.run_for(6.0)
        assert final_distances(job) == reference(EDGES_W)


class TestDeltaDeterminism:
    def _digests(self):
        job = make_job(EDGES_W, trace=True)
        job.failures.kill_at(0.08, "proc-1", recover_after=0.3)
        job.run_for(4.0)
        return (job.trace.digest(), final_distances(job),
                job.metrics.snapshot())

    def test_each_path_is_deterministic_under_a_fixed_seed(self):
        assert self._digests() == self._digests()

    def test_delta_merges_and_batches_in_the_replay(self):
        job = make_job(EDGES_W, delay_bound=4)
        job.run_for(4.0)
        snapshot = job.metrics.snapshot()
        assert snapshot["core.scatter_batches"] > 0
        assert snapshot["core.scatter_buffered"] > 0
        assert final_distances(job) == reference(EDGES_W)


# ------------------------------------------------------- session window
def _processor(job, name="proc-0"):
    return next(p for p in job.processors if p.name == name)


class TestSessionWindow:
    def test_combiner_merges_same_pair_to_newest_offer(self):
        job = make_job(EDGES_W)
        proc = _processor(job)
        loop = proc.loops[MAIN_LOOP]
        proc._buffer_scatter(loop, "a", "c", 3, 7.0)
        proc._buffer_scatter(loop, "a", "c", 5, 4.0)
        entries, index = proc._session_window[MAIN_LOOP]
        assert len(entries) == 1
        kind, producer, consumer, cell = entries[0]
        assert (kind, producer, consumer) == ("update", "a", "c")
        assert cell == [5, 4.0]        # max iteration, last-wins data
        assert index[("a", "c")] is cell
        assert job.metrics.snapshot()["core.scatter_merged"] == 1

    def test_no_combiner_keeps_every_update_in_order(self):
        job = make_job(EDGES_W, combine=False)
        proc = _processor(job)
        loop = proc.loops[MAIN_LOOP]
        proc._buffer_scatter(loop, "a", "c", 3, 7.0)
        proc._buffer_scatter(loop, "a", "c", 5, 4.0)
        entries, _index = proc._session_window[MAIN_LOOP]
        assert [entry[3] for entry in entries] == [[3, 7.0], [5, 4.0]]
        assert job.metrics.snapshot()["core.scatter_merged"] == 0

    def test_flush_batches_per_destination_preserving_order(self):
        job = make_job(EDGES_W, combine=False)
        proc = _processor(job)
        loop = proc.loops[MAIN_LOOP]
        dst = job.partition.owner("c")
        job.partition.reassign("d", dst)  # same destination for both
        proc._buffer_scatter(loop, "a", "c", 3, 7.0)
        proc._buffer_scatter(loop, "b", "d", 3, 2.0)
        proc._flush_window()
        batches = [payload for to, payload in proc.transport._outbox.values()
                   if to == dst and isinstance(payload, ColumnBatch)]
        assert len(batches) == 1
        (producers, consumers, _iterations, _values), = batches[0].segments
        assert list(zip(producers, consumers)) == [("a", "c"), ("b", "d")]
        assert loop.sent_total == 2
        assert loop.counter(3)[1] == 2

    def test_migration_boundary_flush_follows_the_new_owner(self):
        """Satellite oracle: a combined-but-unsent scatter whose consumer
        flips owners mid-window is flushed to the *new* owner — routed at
        flush time, not buffer time — and never dropped."""
        job = make_job(EDGES_W)
        proc = _processor(job)
        loop = proc.loops[MAIN_LOOP]
        old_owner = job.partition.owner("c")
        new_owner = next(p.name for p in job.processors
                         if p.name not in (old_owner, proc.name))
        proc._buffer_scatter(loop, "a", "c", 2, 9.0)
        proc._buffer_scatter(loop, "a", "c", 4, 6.0)   # merged in place
        job.partition.reassign("c", new_owner)
        proc._flush_window()
        sent = [(to, payload) for to, payload
                in proc.transport._outbox.values()
                if isinstance(payload, (VertexUpdate, ColumnBatch))]
        assert len(sent) == 1
        to, payload = sent[0]
        assert to == new_owner
        assert isinstance(payload, VertexUpdate)
        assert (payload.producer, payload.consumer) == ("a", "c")
        assert (payload.iteration, payload.data) == (4, 6.0)
        assert loop.sent_total == 1                    # post-merge charge

    def test_window_always_drains_between_handles(self):
        job = make_job(EDGES_W)
        job.run_for(2.0)
        for proc in job.processors:
            assert proc._session_window == {}
