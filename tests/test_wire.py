"""Columnar-wire A/B tests (``TornadoConfig.columnar_wire``).

The gate changes only the representation of a flushed session window —
packable same-destination scatters leave as typed column runs inside a
:class:`ColumnBatch` instead of per-row ``VertexUpdate`` objects — so the
oracle is byte-identity: same seed ⇒ byte-identical flight-recorder
digests gate on vs off, in steady runs, under kill/recover chaos, with
unpackable values interleaved, and on the live multiprocessing backend
(canonical final-state digests there; raw event order differs between
backends by construction).

The unit tests poke the window and the receive path directly: column
runs form per destination with scalar messages kept in their original
positions, a lone packable payload still ships as a plain update, a
mid-window owner flip routes at flush time, an in-flight flip falls back
to the scalar path on receipt, and drained window buffers are pooled.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.graph_common import EdgeStreamRouter
from repro.algorithms.sssp import SSSPProgram, reference_sssp
from repro.core import Application, TornadoConfig, TornadoJob
from repro.core.messages import (MAIN_LOOP, ColumnBatch, SessionBatch,
                                 VertexUpdate)
from repro.live import canonical_digest
from repro.streams import UniformRate, edge_stream

NODES = list("sabcdefgh")
ACTORS = ["proc-0", "proc-1", "proc-2", TornadoJob.MASTER]

#: Fixed weighted graph (reachable core plus weighted shortcuts, same
#: shape as the delta-path suite) for the determinism pairs.
EDGES_W = [
    ("s", "a", 1.0), ("s", "b", 4.0), ("a", "c", 2.0), ("b", "c", 1.0),
    ("c", "d", 3.0), ("d", "e", 1.0), ("b", "e", 9.0), ("e", "f", 2.0),
    ("f", "g", 1.0), ("d", "g", 7.0), ("a", "h", 5.0), ("h", "d", 1.0),
]


class BoxedOfferSSSP(SSSPProgram):
    """SSSP whose scatter boxes alternate offers in a tuple: unpackable
    values that force the wire's scalar fallback rows to interleave with
    float column runs.  Gather unwraps the box, so convergence is
    identical to plain SSSP.  Must stay at module top level — the live
    backend's spawned workers re-import it by reference."""

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


def make_job(edges, *, wire, program=SSSPProgram, backend="sim",
             n_processors=3, trace=True, seed=7, rate=1000.0):
    app = Application(program("s"), EdgeStreamRouter(), name="sssp")
    job = TornadoJob(app, TornadoConfig(
        backend=backend, n_processors=n_processors,
        report_interval=0.02 if backend == "live" else 0.01,
        retransmit_timeout=0.5 if backend == "live" else 0.1,
        storage_backend="memory", columnar_wire=wire,
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


# ------------------------------------------------------------ config gate
class TestConfigGate:
    def test_gate_defaults_off(self):
        assert TornadoConfig().columnar_wire is False


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
        job = make_job(EDGES_W, wire=True)
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
        assert snapshot["core.wire_batches"] == 1
        assert snapshot["core.wire_packed_rows"] == 2
        assert snapshot["core.wire_fallback"] == 0
        assert loop.sent_total == 2
        assert loop.counter(3)[1] == 2

    def test_unpackable_values_interleave_as_scalars(self):
        job = make_job(EDGES_W, wire=True)
        proc, loop, _dst = self._two_to_one_dst(job)
        proc._buffer_scatter(loop, "a", "c", 3, 7.0)
        proc._buffer_scatter(loop, "b", "c", 3, ("boxed", 2.0))
        proc._buffer_scatter(loop, "b", "d", 3, 4.0)
        proc._flush_window()
        (_to, batch), = _sent(proc, ColumnBatch)
        run1, scalar, run2 = batch.segments
        assert run1 == (("a",), ("c",), (3,), (7.0,))
        assert isinstance(scalar, VertexUpdate)
        assert scalar.data == ("boxed", 2.0)
        assert run2 == (("b",), ("d",), (3,), (4.0,))
        assert job.metrics.snapshot()["core.wire_fallback"] == 1

    def test_single_packable_payload_stays_scalar(self):
        job = make_job(EDGES_W, wire=True)
        proc = _processor(job)
        proc._buffer_scatter(proc.loops[MAIN_LOOP], "a", "c", 3, 7.0)
        proc._flush_window()
        assert _sent(proc, ColumnBatch) == []
        (_to, update), = _sent(proc, VertexUpdate)
        assert (update.producer, update.consumer, update.iteration,
                update.data) == ("a", "c", 3, 7.0)

    def test_gate_off_ships_session_batches(self):
        job = make_job(EDGES_W, wire=False)
        proc, loop, dst = self._two_to_one_dst(job)
        proc._buffer_scatter(loop, "a", "c", 3, 7.0)
        proc._buffer_scatter(loop, "b", "d", 3, 2.0)
        proc._flush_window()
        assert _sent(proc, ColumnBatch) == []
        assert len(_sent(proc, SessionBatch)) == 1
        assert job.metrics.snapshot()["core.wire_batches"] == 0

    def test_owner_flip_mid_window_routes_at_flush_time(self):
        job = make_job(EDGES_W, wire=True)
        proc = _processor(job)
        loop = proc.loops[MAIN_LOOP]
        old_owner = job.partition.owner("c")
        new_owner = next(p.name for p in job.processors
                         if p.name not in (old_owner, proc.name))
        proc._buffer_scatter(loop, "a", "c", 2, 9.0)
        job.partition.reassign("c", new_owner)
        proc._flush_window()
        (to, update), = _sent(proc, (ColumnBatch, VertexUpdate,
                                     SessionBatch))
        assert to == new_owner
        assert isinstance(update, VertexUpdate)
        assert (update.producer, update.consumer) == ("a", "c")

    def test_window_buffers_are_pooled_across_flushes(self):
        """Satellite oracle: drained per-loop window buffers return to a
        pool and are reused by the next window (clear-don't-recreate)."""
        job = make_job(EDGES_W, wire=True)
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
        job = make_job(EDGES_W, wire=True, n_processors=1)
        proc = _processor(job)
        job.run_for(3.0)
        loop = proc.loops[MAIN_LOOP]
        before = loop.gathered_total
        fast_before = job.metrics.snapshot()["core.wire_row_gathers"]
        rows = [("x1", "c", 0, 1e6), ("x2", "d", 0, 1e6)]
        proc._dispatch(ColumnBatch(MAIN_LOOP, (tuple(zip(*rows)),)))
        assert loop.gathered_total == before + 2
        snapshot = job.metrics.snapshot()
        assert snapshot["core.wire_row_gathers"] == fast_before + 2
        # Non-improving offers: converged distances are untouched.
        assert final_distances(job) == reference(EDGES_W)

    def test_foreign_rows_forward_to_their_owner(self):
        """An in-flight owner flip: rows whose consumer this processor
        does not own fall back to the scalar path, which forwards the
        update — the message follows the vertex, it is never dropped."""
        job = make_job(EDGES_W, wire=True)
        job.run_for(3.0)
        owner = job.partition.owner("c")
        other = next(p for p in job.processors if p.name != owner)
        outbox_before = len(other.transport._outbox)
        fast_before = job.metrics.snapshot()["core.wire_row_gathers"]
        rows = [("x1", "c", 0, 1e6)]
        other._dispatch(ColumnBatch(MAIN_LOOP, (tuple(zip(*rows)),)))
        forwarded = [
            (to, payload) for to, payload
            in list(other.transport._outbox.values())[outbox_before:]
            if isinstance(payload, VertexUpdate)]
        assert forwarded == [(owner, VertexUpdate(MAIN_LOOP, "x1", "c",
                                                  0, 1e6))]
        assert (job.metrics.snapshot()["core.wire_row_gathers"]
                == fast_before)

    def test_scalar_segments_dispatch_in_place(self):
        job = make_job(EDGES_W, wire=True, n_processors=1)
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
    def _digests(self, wire, *, program=SSSPProgram, chaos=False):
        job = make_job(EDGES_W, wire=wire, program=program)
        if chaos:
            job.failures.kill_at(0.08, "proc-1", recover_after=0.3)
        job.run_for(4.0)
        snapshot = job.metrics.snapshot()
        return (job.trace.digest(), final_distances(job),
                snapshot.get("core.wire_packed_rows", 0),
                snapshot.get("core.wire_fallback", 0))

    def test_steady_digests_identical_and_pack_engages(self):
        off = self._digests(False)
        on = self._digests(True)
        assert on[0] == off[0]
        assert on[1] == off[1] == reference(EDGES_W)
        assert on[2] > 0 and off[2] == 0

    def test_chaos_digests_identical(self):
        off = self._digests(False, chaos=True)
        on = self._digests(True, chaos=True)
        assert on[0] == off[0]
        assert on[1] == off[1] == reference(EDGES_W)
        assert on[2] > 0

    def test_boxed_offers_fall_back_and_stay_identical(self):
        off = self._digests(False, program=BoxedOfferSSSP)
        on = self._digests(True, program=BoxedOfferSSSP)
        assert on[0] == off[0]
        assert on[1] == off[1] == reference(EDGES_W)
        assert on[2] > 0        # packable floats still packed
        assert on[3] > 0        # boxed offers took the fallback


# ------------------------------------------------------------ live backend
def _run_live(wire, *, program=SSSPProgram, chaos=False):
    job = make_job(EDGES_W, wire=wire, program=program, backend="live",
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
                final_distances(job), job.wire_rows())
    finally:
        job.shutdown()


class TestLiveParity:
    def test_live_digests_identical_and_pack_engages(self):
        off = _run_live(False)
        on = _run_live(True)
        assert on[0] == off[0]
        assert on[1] == off[1] == reference(EDGES_W)
        assert on[2] > 0 and off[2] == 0

    def test_live_kill_recover_stays_exact(self):
        off = _run_live(False, chaos=True)
        on = _run_live(True, chaos=True)
        assert on[1] == off[1] == reference(EDGES_W)


# -------------------------------------------------------------- properties
def _dedupe(raw):
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
        st.floats(min_value=0.01, max_value=1.2),
        st.floats(min_value=0.05, max_value=0.8),
    ),
    min_size=0, max_size=2,
    unique_by=lambda spec: spec[0],
)


class TestWireScalarEquivalenceProperty:
    @given(edges=weighted_graphs, boxed=st.booleans(), specs=kill_specs)
    @settings(max_examples=8, deadline=None)
    def test_random_interleavings_sim(self, edges, boxed, specs):
        """Random packable/fallback interleavings under random chaos:
        the wire regime must replay to the byte the scalar regime's
        flight-recorder stream and converge to the same distances."""
        program = BoxedOfferSSSP if boxed else SSSPProgram
        results = {}
        for wire in (False, True):
            job = make_job(edges, wire=wire, program=program)
            for actor, at, downtime in specs:
                job.failures.kill_at(at, actor, recover_after=downtime)
            job.run_for(6.0)
            results[wire] = (job.trace.digest(), final_distances(job))
        assert results[True] == results[False]
        assert results[True][1] == reference(edges)

    @given(boxed=st.booleans())
    @settings(max_examples=2, deadline=None)
    def test_interleavings_live(self, boxed):
        """The live leg of the same property at minimal scale: boxed
        offers interleave fallback rows with column runs across real
        process boundaries without changing the canonical answer."""
        program = BoxedOfferSSSP if boxed else SSSPProgram
        off = _run_live(False, program=program)
        on = _run_live(True, program=program)
        assert on[0] == off[0]
        assert on[1] == off[1] == reference(EDGES_W)
        assert on[2] > 0
