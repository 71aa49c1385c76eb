"""The session frame: window flushes as column runs.

Every multi-payload window flush leaves as one :class:`ColumnBatch` per
destination: consecutive updates become column runs of plain tuples
(producers, consumers, iterations, values) whatever the value type, and
PREPAREs and ACKs keep their positions between the runs.  A payload alone
in its envelope still ships as a plain message.

The oracle is the scalar path, which survives as the receive path of a
lone ``VertexUpdate``: a column run dispatched into one processor must
leave exactly the vertex state, protocol state, counters, trace events
and returned cost that the same rows dispatched one by one as
``VertexUpdate`` objects leave in a twin processor (the property test
below).  End to end, the value type never shows in the timeline: a run
whose offers are boxed in tuples replays the plain-float run's
flight-recorder digest to the byte, steady and under kill/recover, and
the live backend reaches the DES run's canonical final state.

The unit tests poke the window and the receive path directly: column
runs form per destination with scalar messages kept in their original
positions, a lone payload still ships as a plain update, a mid-window
owner flip routes at flush time, an in-flight flip forwards on receipt,
and drained window buffers are pooled.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.graph_common import EdgeStreamRouter
from repro.algorithms.sssp import SSSPProgram, reference_sssp
from repro.core import Application, TornadoConfig, TornadoJob
from repro.core.messages import (MAIN_LOOP, ColumnBatch, Prepare,
                                 VertexUpdate)
from repro.core.protocol import VertexProtocol
from repro.live import canonical_digest
from repro.streams import UniformRate, edge_stream

NODES = list("sabcdefgh")

#: Fixed weighted graph (reachable core plus weighted shortcuts, same
#: shape as the delta-path suite) for the determinism pairs.
EDGES_W = [
    ("s", "a", 1.0), ("s", "b", 4.0), ("a", "c", 2.0), ("b", "c", 1.0),
    ("c", "d", 3.0), ("d", "e", 1.0), ("b", "e", 9.0), ("e", "f", 2.0),
    ("f", "g", 1.0), ("d", "g", 7.0), ("a", "h", 5.0), ("h", "d", 1.0),
]


class BoxedOfferSSSP(SSSPProgram):
    """SSSP whose scatter boxes alternate offers in a tuple, so non-float
    values share the column runs with float ones.  Gather unwraps the
    box, so convergence is identical to plain SSSP.  Must stay at module
    top level — the live backend's spawned workers re-import it by
    reference."""

    def scatter(self, ctx) -> None:
        value = ctx.value
        for target in value.retracted:
            ctx.emit(target, math.inf)
        value.retracted = set()
        for target in ctx.targets:
            if math.isinf(value.distance):
                offer = math.inf
            else:
                offer = (value.distance
                         + value.edge_weights.get(target, 1.0))
            if sum(map(ord, str(target))) % 2:
                ctx.emit(target, ("boxed", offer))
            else:
                ctx.emit(target, offer)

    def gather(self, ctx, source, delta) -> bool:
        if (isinstance(delta, tuple) and len(delta) == 2
                and delta[0] == "boxed"):
            delta = delta[1]
        return super().gather(ctx, source, delta)


class CostedBoxedSSSP(BoxedOfferSSSP):
    """Boxed SSSP with a per-gather cost override that reads the vertex,
    so the column path must call ``gather_cost`` row by row."""

    def gather_cost(self, ctx, source, delta):
        if source is None:
            return None
        return 1e-5 * (1 + len(ctx.value.source_lengths))


def make_job(edges, *, program=SSSPProgram, backend="sim",
             n_processors=3, trace=True, seed=7, rate=1000.0,
             delay_bound=65536):
    app = Application(program("s"), EdgeStreamRouter(), name="sssp")
    job = TornadoJob(app, TornadoConfig(
        backend=backend, n_processors=n_processors,
        report_interval=0.02 if backend == "live" else 0.01,
        retransmit_timeout=0.5 if backend == "live" else 0.1,
        storage_backend="memory", delay_bound=delay_bound,
        trace_enabled=trace, seed=seed))
    job.feed(edge_stream(edges, UniformRate(rate=rate)))
    return job


def final_distances(job):
    return {vid: value.distance
            for vid, value in job.main_values().items()
            if not math.isinf(value.distance)}


def reference(edges):
    return {v: d for v, d in reference_sssp(edges, "s").items()
            if not math.isinf(d)}


def _processor(job, name="proc-0"):
    return next(p for p in job.processors if p.name == name)


def _sent(proc, kinds):
    return [(to, payload) for to, payload
            in proc.transport._outbox.values()
            if isinstance(payload, kinds)]


# -------------------------------------------------------- window packing
class TestSessionWindowPack:
    def _two_to_one_dst(self, job):
        """Two distinct-pair scatters bound for the same destination."""
        proc = _processor(job)
        loop = proc.loops[MAIN_LOOP]
        dst = job.partition.owner("c")
        job.partition.reassign("d", dst)
        return proc, loop, dst

    def test_flush_packs_column_runs(self):
        job = make_job(EDGES_W)
        proc, loop, dst = self._two_to_one_dst(job)
        proc._buffer_scatter(loop, "a", "c", 3, 7.0)
        proc._buffer_scatter(loop, "b", "d", 3, 2.0)
        proc._flush_window()
        batches = _sent(proc, ColumnBatch)
        assert [to for to, _ in batches] == [dst]
        batch = batches[0]
        assert batch[1].segments == ((("a", "b"), ("c", "d"), (3, 3),
                                      (7.0, 2.0)),)
        snapshot = job.metrics.snapshot()
        assert snapshot["core.scatter_batches"] == 1
        assert snapshot["core.scatter_batched_updates"] == 2
        assert loop.sent_total == 2
        assert loop.counter(3)[1] == 2

    def test_non_float_values_pack_into_the_same_runs(self):
        """Any value type rides a column run; only a protocol message
        splits one."""
        job = make_job(EDGES_W)
        proc, loop, dst = self._two_to_one_dst(job)
        proc._buffer_scatter(loop, "a", "c", 3, 7.0)
        proc._buffer_scatter(loop, "b", "c", 3, ("boxed", 2.0))
        prepare = Prepare(MAIN_LOOP, "b", "d", None)
        proc._buffer_prepare(loop, "d", prepare)
        proc._buffer_scatter(loop, "b", "d", 3, 4)
        proc._flush_window()
        (_to, batch), = _sent(proc, ColumnBatch)
        run1, scalar, run2 = batch.segments
        assert run1 == (("a", "b"), ("c", "c"), (3, 3),
                        (7.0, ("boxed", 2.0)))
        assert scalar is prepare
        assert run2 == (("b",), ("d",), (3,), (4,))
        assert batch.has_prepare()
        assert batch.update_producers() == ["a", "b", "b"]

    def test_single_packable_payload_stays_scalar(self):
        job = make_job(EDGES_W)
        proc = _processor(job)
        proc._buffer_scatter(proc.loops[MAIN_LOOP], "a", "c", 3, 7.0)
        proc._flush_window()
        assert _sent(proc, ColumnBatch) == []
        (_to, update), = _sent(proc, VertexUpdate)
        assert (update.producer, update.consumer, update.iteration,
                update.data) == ("a", "c", 3, 7.0)

    def test_owner_flip_mid_window_routes_at_flush_time(self):
        job = make_job(EDGES_W)
        proc = _processor(job)
        loop = proc.loops[MAIN_LOOP]
        old_owner = job.partition.owner("c")
        new_owner = next(p.name for p in job.processors
                         if p.name not in (old_owner, proc.name))
        proc._buffer_scatter(loop, "a", "c", 2, 9.0)
        job.partition.reassign("c", new_owner)
        proc._flush_window()
        (to, update), = _sent(proc, (ColumnBatch, VertexUpdate))
        assert to == new_owner
        assert isinstance(update, VertexUpdate)
        assert (update.producer, update.consumer) == ("a", "c")

    def test_window_buffers_are_pooled_across_flushes(self):
        """Satellite oracle: drained per-loop window buffers return to a
        pool and are reused by the next window (clear-don't-recreate)."""
        job = make_job(EDGES_W)
        proc = _processor(job)
        loop = proc.loops[MAIN_LOOP]
        proc._buffer_scatter(loop, "a", "c", 3, 7.0)
        first = proc._session_window[MAIN_LOOP]
        proc._flush_window()
        assert proc._session_window == {}
        proc._buffer_scatter(loop, "a", "c", 4, 6.0)
        assert proc._session_window[MAIN_LOOP] is first
        proc._flush_window()
        assert job.metrics.snapshot()["core.window_reuse"] == 1


# ------------------------------------------------------------ receive path
class TestColumnBatchReceive:
    def test_rows_gather_on_the_fast_path(self):
        job = make_job(EDGES_W, n_processors=1)
        proc = _processor(job)
        job.run_for(3.0)
        loop = proc.loops[MAIN_LOOP]
        before = loop.gathered_total
        rows = [("x1", "c", 0, 1e6), ("x2", "d", 0, 1e6)]
        proc._dispatch(ColumnBatch(MAIN_LOOP, (tuple(zip(*rows)),)))
        assert loop.gathered_total == before + 2
        # Non-improving offers: converged distances are untouched.
        assert final_distances(job) == reference(EDGES_W)

    def test_foreign_rows_forward_to_their_owner(self):
        """An in-flight owner flip: rows whose consumer this processor
        does not own take the scalar path, which forwards the update —
        the message follows the vertex, it is never dropped."""
        job = make_job(EDGES_W)
        job.run_for(3.0)
        owner = job.partition.owner("c")
        other = next(p for p in job.processors if p.name != owner)
        outbox_before = len(other.transport._outbox)
        gathered_before = other.loops[MAIN_LOOP].gathered_total
        rows = [("x1", "c", 0, 1e6)]
        other._dispatch(ColumnBatch(MAIN_LOOP, (tuple(zip(*rows)),)))
        forwarded = [
            (to, payload) for to, payload
            in list(other.transport._outbox.values())[outbox_before:]
            if isinstance(payload, VertexUpdate)]
        assert forwarded == [(owner, VertexUpdate(MAIN_LOOP, "x1", "c",
                                                  0, 1e6))]
        assert other.loops[MAIN_LOOP].gathered_total == gathered_before

    def test_scalar_segments_dispatch_in_place(self):
        job = make_job(EDGES_W, n_processors=1)
        proc = _processor(job)
        job.run_for(3.0)
        loop = proc.loops[MAIN_LOOP]
        before = loop.gathered_total
        batch = ColumnBatch(MAIN_LOOP, (
            (("x1",), ("c",), (0,), (1e6,)),
            VertexUpdate(MAIN_LOOP, "x2", "d", 0, 1e6),
        ))
        proc._dispatch(batch)
        assert loop.gathered_total == before + 2


# ------------------------------------------------------- determinism (sim)
class TestDigestParity:
    """The value type never shows in the timeline: boxed offers travel in
    the same column runs as floats and replay the same digest."""

    def _digests(self, program, *, chaos=False, frames=None):
        job = make_job(EDGES_W, program=program)
        if frames is not None:
            _record_frames(job, frames)
        if chaos:
            job.failures.kill_at(0.08, "proc-1", recover_after=0.3)
        job.run_for(4.0)
        snapshot = job.metrics.snapshot()
        return (job.trace.digest(), final_distances(job),
                snapshot["core.scatter_batches"])

    def test_steady_digests_identical_and_pack_engages(self):
        plain = self._digests(SSSPProgram)
        boxed = self._digests(BoxedOfferSSSP)
        assert boxed == plain
        assert plain[1] == reference(EDGES_W)
        assert plain[2] > 0

    def test_chaos_digests_identical(self):
        plain = self._digests(SSSPProgram, chaos=True)
        boxed = self._digests(BoxedOfferSSSP, chaos=True)
        assert boxed == plain
        assert plain[1] == reference(EDGES_W)

    def test_boxed_offers_pack_and_stay_identical(self):
        frames = []
        boxed = self._digests(BoxedOfferSSSP, frames=frames)
        assert boxed == self._digests(SSSPProgram)
        runs = [seg for frame in frames if isinstance(frame, ColumnBatch)
                for seg in frame.segments if type(seg) is tuple]
        mixed = [run for run in runs
                 if {type(value) for value in run[3]} >= {float, tuple}]
        assert mixed, "no column run carried boxed and float offers"


def _record_frames(job, frames):
    """Append every payload the job's processors hand their transport."""
    for proc in job.processors:
        def recording(dst, payload, *args, _send=proc.transport.send,
                      **kwargs):
            frames.append(payload)
            return _send(dst, payload, *args, **kwargs)
        proc.transport.send = recording


# ------------------------------------------------------------ live backend
def _run_live(*, program=SSSPProgram, chaos=False):
    job = make_job(EDGES_W, program=program, backend="live",
                   n_processors=2, trace=False, rate=1e9)
    try:
        if chaos:
            job.pump_for(0.15)
            job.kill_worker("proc-1")
            job.pump_for(0.1)
            job.respawn_worker("proc-1")
        job.run_until_converged(timeout=60.0)
        job.finalize(timeout=30.0)
        return (canonical_digest(job, include_counts=False),
                final_distances(job))
    finally:
        job.shutdown()


class TestLiveParity:
    def test_live_digests_identical_and_pack_engages(self):
        """Column runs cross real process boundaries and the live run
        reaches the canonical final state of the DES run of the same
        job, whose processors (the same code the workers run) ship
        column-run frames."""
        live = _run_live()
        des = make_job(EDGES_W, n_processors=2, trace=False, rate=1e9)
        des.run_for(4.0)
        assert live == (canonical_digest(des, include_counts=False),
                        final_distances(des))
        assert live[1] == reference(EDGES_W)
        assert des.metrics.snapshot()["core.scatter_batches"] > 0

    def test_live_kill_recover_stays_exact(self):
        live = _run_live(chaos=True)
        assert live[1] == reference(EDGES_W)


# -------------------------------------------------------------- properties
#: Producers: graph vertices with out-edges (their earlier offers sit in
#: the consumers' ``gathered_from``) and an id the receiver has never
#: heard from.
PRODUCERS = ["s", "a", "b", "c", "d", "h", "x1"]
#: Consumers include a vertex no stream tuple ever created.
CONSUMERS = NODES + ["z"]

values = st.one_of(
    st.floats(min_value=0.0, max_value=40.0),
    st.integers(min_value=0, max_value=40),
    st.just(math.inf),
    st.tuples(st.just("boxed"), st.floats(min_value=0.0, max_value=40.0)),
)

#: (producer, consumer, iteration offset from the loop's frontier, value,
#: repeat).  With a delay bound of 4, offsets of 3 and up park in the
#: delay buffer.  A row below its producer's last gathered iteration is
#: stale under the program's last-wins combiner; ``repeat`` follows a row
#: with the same pair two iterations lower, which is stale whenever the
#: first one gathered.
rows_strategy = st.lists(
    st.tuples(st.sampled_from(PRODUCERS), st.sampled_from(CONSUMERS),
              st.integers(min_value=-14, max_value=6), values,
              st.booleans()),
    min_size=1, max_size=10)


def _processor_state(proc):
    """Everything a gather can touch on a processor, as plain data."""
    loops = {}
    for name, loop in proc.loops.items():
        loops[name] = (
            {vid: (state.value, state.targets, state.last_commit_iteration)
             for vid, state in loop.vertices.items()},
            {vid: tuple(getattr(protocol, slot)
                        for slot in VertexProtocol.__slots__)
             for vid, protocol in loop.protocols.items()},
            loop.frontier, loop.counters, loop.inputs_gathered,
            loop.gathered_total, loop.sent_total, loop.commits_total,
            loop.prepares_recorded, loop.highest_commit,
            loop.buffered_updates, loop.released_pairs,
            loop.buffered_inputs, loop.recent_gather_counts,
            loop.changed_since_fork)
    return (loops, proc._orphans, list(proc.transport._outbox.values()),
            proc.total_updates_gathered, proc.total_commits,
            proc.total_prepares)


class TestWireScalarEquivalenceProperty:
    @given(program=st.sampled_from([BoxedOfferSSSP, CostedBoxedSSSP]),
           receiver=st.sampled_from(["proc-0", "proc-1", "proc-2"]),
           loop_name=st.sampled_from([MAIN_LOOP, MAIN_LOOP, "branch-9"]),
           flips=st.lists(st.tuples(st.sampled_from(CONSUMERS),
                                    st.sampled_from(["proc-0", "proc-1",
                                                     "proc-2"])),
                          max_size=2),
           raw_rows=rows_strategy)
    @settings(max_examples=30, deadline=None)
    def test_random_interleavings_sim(self, program, receiver, loop_name,
                                      flips, raw_rows):
        """One column run into processor A and the same rows one by one
        as ``VertexUpdate``s into a twin B: equal vertex and protocol
        state, counters, trace events and returned cost — right after
        the dispatch and after both jobs run on."""
        twins = []
        for _ in range(2):
            job = make_job(EDGES_W, program=program, delay_bound=4)
            job.run_for(0.05)
            for vertex, owner in flips:
                job.partition.reassign(vertex, owner)
            twins.append((job, _processor(job, receiver)))
        (job_a, proc_a), (job_b, proc_b) = twins
        loop = proc_a.loops.get(loop_name)
        frontier = loop.frontier if loop is not None else 0
        rows = []
        for producer, consumer, offset, value, repeat in raw_rows:
            for shift in ((0, 2) if repeat else (0,)):
                iteration = max(0, frontier + offset - shift)
                rows.append((producer, consumer, iteration, value))

        cost_a = proc_a._dispatch(
            ColumnBatch(loop_name, (tuple(zip(*rows)),)))
        cost_a += proc_a._flush_window()
        cost_b = 0.0
        for row in rows:
            cost_b += proc_b._dispatch(VertexUpdate(loop_name, *row))
        cost_b += proc_b._flush_window()

        assert cost_a == cost_b
        assert _processor_state(proc_a) == _processor_state(proc_b)
        assert job_a.metrics.snapshot() == job_b.metrics.snapshot()
        assert job_a.trace.digest() == job_b.trace.digest()
        for job, _proc in twins:
            job.run_for(1.0)
        assert job_a.trace.digest() == job_b.trace.digest()
        assert final_distances(job_a) == final_distances(job_b)

    def test_interleavings_live(self):
        """The live leg at minimal scale: boxed offers interleave with
        float offers in the column runs across real process boundaries
        without changing the canonical answer."""
        plain = _run_live()
        boxed = _run_live(program=BoxedOfferSSSP)
        assert boxed == plain
        assert plain[1] == reference(EDGES_W)
