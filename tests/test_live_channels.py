"""The peer-to-peer live data plane: direct worker↔worker channels, the
exact (count-based) convergence predicate, and the relay that remains
for a respawned incarnation.

``TestWorkerNet`` and ``TestChannelReport`` (the tracker's channel
half, on hand-built reports) run in this process; everything else spawns
real worker processes.
"""

import math
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import EdgeStreamRouter
from repro.algorithms.sssp import SSSPProgram, reference_sssp
from repro.core import Application, TornadoConfig, TornadoJob
from repro.core.messages import Envelope, ProgressReport, TransportAck
from repro.core.progress import ProgressTracker
from repro.live.kernel import LiveKernel
from repro.live.transport import WorkerNet
from repro.live.wire import Collect, StoreWrite, Wire
from repro.streams import UniformRate, edge_stream
from tests.test_live_backend import FakeQueue

#: Diamond-heavy general graph: multi-producer vertices.
BASE_EDGES = [("s", "a"), ("s", "b"), ("a", "c"), ("b", "c"),
              ("c", "d"), ("d", "e"), ("b", "e"), ("e", "f")]
BURST = UniformRate(rate=1e9)
MASTER_SIDE = ("master", "ingester")


def sssp_app(source="s"):
    return Application(SSSPProgram(source), EdgeStreamRouter(), name="sssp")


def live_job(app=None, **kwargs):
    kwargs.setdefault("n_processors", 2)
    kwargs.setdefault("report_interval", 0.02)
    kwargs.setdefault("storage_backend", "memory")
    kwargs.setdefault("seed", 7)
    return TornadoJob(app or sssp_app(),
                      TornadoConfig(backend="live", **kwargs))


def finite_distances(values):
    return {vid: value.distance for vid, value in values.items()
            if not math.isinf(value.distance)}


def reference(edges, source="s"):
    return {v: d for v, d in reference_sssp(edges, source).items()
            if not math.isinf(d)}


def counted(name, seq, sent=(), received=()):
    """A passive main-loop report from ``name`` carrying these counts."""
    return ProgressReport("main", name, seq, {}, math.inf,
                          channels=(tuple(sent), tuple(received)))


def wire(src, payload, dst="proc-0"):
    return Wire(src, dst, 1, payload)


class TestWorkerNet:
    def net(self, inbound=None, peers_in=None):
        self.outbound = FakeQueue()
        self.to_peer = FakeQueue()
        return WorkerNet(LiveKernel(), "proc-0", self.outbound,
                         inbound or FakeQueue(),
                         peers_in or {"proc-1": FakeQueue()},
                         {"proc-1": self.to_peer})

    def test_peer_traffic_goes_direct_and_only_payload_counts(self):
        net = self.net()
        net.send("proc-0", "proc-1", Envelope(1, "update"))
        net.send("proc-0", "proc-1", TransportAck(9))
        net.send("proc-0", "master", Envelope(2, "report"))
        assert [w.payload for w in self.to_peer.items] == \
            [Envelope(1, "update"), TransportAck(9)]
        assert [w.dst for w in self.outbound.items] == ["master"]
        assert net.sent == {"proc-1": 1}
        assert net.frames_out == 1      # the master queue only

    def test_intake_is_per_source_fifo_master_first(self):
        from_master = FakeQueue(wire("ingester", Envelope(1, "in-1")),
                                  wire("master", TransportAck(4)),
                                  wire("ingester", Envelope(2, "in-2")))
        from_peer = FakeQueue(wire("proc-1", Envelope(7, "up-1")),
                                wire("proc-1", TransportAck(5)),
                                wire("proc-1", Envelope(8, "up-2")))
        net = self.net(from_master, {"proc-1": from_peer})
        batch = net.take_batch()
        assert [w.payload for w in batch] == [
            Envelope(1, "in-1"), TransportAck(4), Envelope(2, "in-2"),
            Envelope(7, "up-1"), TransportAck(5), Envelope(8, "up-2")]
        assert net.received == {"master": 2, "proc-1": 2}
        assert net.take_batch() == []

    def test_control_frame_ends_the_batch(self):
        from_master = FakeQueue(wire("ingester", Envelope(1, "in")),
                                  Collect(),
                                  wire("ingester", Envelope(2, "later")))
        from_peer = FakeQueue(wire("proc-1", Envelope(7, "up")))
        net = self.net(from_master, {"proc-1": from_peer})
        assert net.take_batch()[-1] == Collect()
        assert net.received == {"master": 1, "proc-1": 0}
        assert [w.payload for w in net.take_batch()] == \
            [Envelope(2, "later"), Envelope(7, "up")]

    def test_stashed_frames_come_first_on_the_master_channel(self):
        net = self.net(FakeQueue(wire("ingester", Envelope(2, "new"))))
        net.stash.append(wire("proc-1", Envelope(1, "relayed early")))
        assert [w.payload.msg_id for w in net.take_batch()] == [1, 2]
        assert net.received == {"master": 2, "proc-1": 0}

    def test_peer_down_drops_both_queues_and_their_counts(self):
        from_peer = FakeQueue(wire("proc-1", Envelope(7, "lost")))
        net = self.net(peers_in={"proc-1": from_peer})
        net.send("proc-0", "proc-1", Envelope(1, "before"))
        net.drop_peer("proc-1")
        assert from_peer.closed and self.to_peer.closed
        assert net.sent == {} and net.received == {"master": 0}
        assert net.take_batch() == []           # the dead queue is not read
        net.send("proc-0", "proc-1", Envelope(2, "after"))
        assert [w.payload for w in self.outbound.items] == \
            [Envelope(2, "after")]              # ... through the master
        net.drop_peer("proc-1")                 # a second kill: no-op

    def test_counts_move_with_payload_frames_only(self):
        net = self.net()
        assert net.counts() == ((("proc-1", 0),),
                                (("master", 0), ("proc-1", 0)))
        net.send("proc-0", "proc-1", TransportAck(3))
        assert net.counts()[0] == (("proc-1", 0),)      # acks move no count
        net.send("proc-0", "proc-1", Envelope(1, "update"))
        assert net.counts()[0] == (("proc-1", 1),)
        net.drop_peer("proc-1")                         # both ends go
        assert net.counts() == ((), (("master", 0),))


class TestChannelReport:
    """The tracker's channel half on hand-built reports."""

    MASTER_SENT = {"proc-0": 3, "proc-1": 5}

    def tracker(self, *reports):
        tracker = ProgressTracker("main", ["proc-0", "proc-1"])
        for report in reports or self.settled():
            tracker.apply_report(report)
        return tracker

    def settled(self):
        return [counted("proc-0", 4, [("proc-1", 12)],
                        [("master", 3), ("proc-1", 7)]),
                counted("proc-1", 9, [("proc-0", 7)],
                        [("master", 5), ("proc-0", 12)])]

    def test_agreeing_ends_are_settled(self):
        unknown, channels = self.tracker().channels(self.MASTER_SENT)
        assert unknown == []
        assert channels == {("master", "proc-0"): (3, 3),
                            ("master", "proc-1"): (5, 5),
                            ("proc-0", "proc-1"): (12, 12),
                            ("proc-1", "proc-0"): (7, 7)}

    def test_one_frame_in_flight_between_workers(self):
        tracker = self.tracker()
        tracker.apply_report(counted("proc-1", 10, [("proc-0", 7)],
                                     [("master", 5), ("proc-0", 11)]))
        unknown, channels = tracker.channels(self.MASTER_SENT)
        assert unknown == []
        assert [channel for channel, (sent, received) in channels.items()
                if sent != received] == [("proc-0", "proc-1")]
        assert channels["proc-0", "proc-1"] == (12, 11)

    def test_one_frame_in_flight_from_the_master(self):
        _unknown, channels = self.tracker().channels(
            {"proc-0": 4, "proc-1": 5})
        assert channels["master", "proc-0"] == (4, 3)

    def test_report_without_counts_leaves_its_worker_unknown(self):
        """A report taken with frames unhandled carries no counts: the
        counts of the report before it no longer describe the worker."""
        tracker = self.tracker()
        tracker.apply_report(ProgressReport("main", "proc-0", 5, {},
                                            math.inf))
        unknown, channels = tracker.channels(self.MASTER_SENT)
        assert unknown == ["proc-0"]
        assert channels["proc-1", "proc-0"] == (7, None)

    def test_worker_without_evidence_lags(self):
        """A worker not heard from since the views were reset (recovery)
        is unknown, and the channels it shares stay open."""
        tracker = self.tracker(self.settled()[0])
        unknown, channels = tracker.channels(self.MASTER_SENT)
        assert unknown == ["proc-1"]
        assert channels["proc-0", "proc-1"] == (12, None)
        assert channels["master", "proc-1"] == (5, None)

    def test_channel_dropped_at_one_end_only_is_open(self):
        """A respawned proc-1 lists no peers; proc-0 still does until it
        has handled PeerDown and said so."""
        tracker = self.tracker()
        tracker.apply_report(counted("proc-1", 10, [], [("master", 5)]))
        _unknown, channels = tracker.channels(self.MASTER_SENT)
        assert channels["proc-0", "proc-1"] == (12, None)
        assert channels["proc-1", "proc-0"] == (None, 7)
        tracker.apply_report(counted("proc-0", 5, [], [("master", 3)]))
        _unknown, channels = tracker.channels(self.MASTER_SENT)
        assert all(sent == received
                   for sent, received in channels.values())

    def test_a_worker_the_master_does_not_name_is_left_out(self):
        """A killed worker's last report still lists its channels; the
        live driver names only the live workers."""
        _unknown, channels = self.tracker().channels({"proc-0": 3})
        assert ("master", "proc-1") not in channels
        assert channels["proc-0", "proc-1"] == (12, None)


class TestExactPredicate:
    def test_idle_views_do_not_converge_on_mismatched_evidence(self):
        """Every tracker view reads passive, yet one channel count out of
        line, or a last report without counts, keeps ``quiescent()``
        false."""
        job = live_job(report_interval=5.0)     # no heartbeat in between
        try:
            job.feed(edge_stream(BASE_EDGES, BURST))
            job.run_until_converged(timeout=30.0)
            assert job.quiescent()
            view = job.master.trackers["main"].view("proc-0")
            true = view.channels
            (peer, count), = true[0]

            view.channels = (((peer, count + 1),), true[1])
            assert not job.quiescent()
            assert f"proc-0→{peer}: {count + 1} sent, {count} received" \
                in job.diagnostics()

            view.channels = None
            assert not job.quiescent()
            assert "no channel counts in the last report of: proc-0" \
                in job.diagnostics()

            view.channels = true
            job.net.sent["proc-1"] += 1         # a master frame in flight
            assert not job.quiescent()
            job.net.sent["proc-1"] -= 1
            assert job.quiescent()
            assert "in flight: nothing" in job.diagnostics()
        finally:
            job.shutdown()

    def test_timeout_names_the_channels_in_flight(self):
        """A stopped worker leaves the master's inputs to it in flight;
        the TimeoutError says so, channel by channel."""
        job = live_job()
        try:
            job.feed(edge_stream(BASE_EDGES, BURST))
            job.run_until_converged(timeout=30.0)
            pid = job._links["proc-1"].process.pid
            os.kill(pid, signal.SIGSTOP)
            try:
                job.feed(edge_stream(
                    [("f", f"t{i}") for i in range(16)], BURST))
                with pytest.raises(TimeoutError) as excinfo:
                    job.run_until_converged(timeout=0.5)
            finally:
                os.kill(pid, signal.SIGCONT)
            message = str(excinfo.value)
            (counts,) = [line for line in message.splitlines()
                         if line.startswith("channels (sent/received): ")]
            for channel in ("master→proc-0 ", "master→proc-1 ",
                            "proc-0→proc-1 ", "proc-1→proc-0 "):
                assert channel in counts
            (in_flight,) = [line for line in message.splitlines()
                            if line.startswith("in flight: ")]
            assert "master→proc-1: " in in_flight
            assert " sent, " in in_flight and " received" in in_flight
            job.run_until_converged(timeout=30.0)   # and it recovers
        finally:
            job.shutdown()


def random_graph(seed, n_vertices=28, n_edges=90):
    """General directed graph on ``n_vertices`` with source 0: a spine so
    most of it is reachable, random extra edges for the multi-producer
    vertices."""
    rng = np.random.default_rng(seed)
    spine = [(i, i + 1) for i in range(0, n_vertices - 1, 2)]
    extra = [(int(u), int(v)) for u, v
             in rng.integers(0, n_vertices, size=(n_edges, 2)) if u != v]
    return spine + extra


class TestSoundness:
    """No waiting must not mean early: once ``run_until_converged``
    returns nothing may still be moving."""

    @pytest.mark.parametrize("n_workers", [2, 3, 4])
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=2, deadline=None)
    def test_nothing_moves_after_convergence(self, n_workers, seed):
        edges = random_graph(seed)
        base, rest = edges[:40], edges[40:]
        deltas = [rest[i:i + 5] for i in range(0, len(rest), 5)]
        job = live_job(sssp_app(0), n_processors=n_workers, seed=seed)
        late = []
        handle = job._handle_item

        def watch(item):
            if isinstance(item, StoreWrite) and item.entries:
                late.append(item)
            handle(item)

        try:
            fed = list(base)
            job.feed(edge_stream(base, BURST))
            job.run_until_converged(timeout=60.0)
            for delta in deltas:
                fed += delta
                job.feed(edge_stream(delta, BURST))
                job.run_until_converged(timeout=60.0)
                _unknown, before = job._channels()
                job._handle_item = watch
                job.pump_for(0.05)
                del job._handle_item
                # (A heartbeat may be half in: its counts are compared,
                # its seq is not.)
                _unknown, after = job._channels()
                assert after == before, f"a frame moved after {fed[-1]}"
                assert not late, f"state flushed after {fed[-1]}"
            assert finite_distances(job.main_values()) == reference(fed, 0)
            assert job.metrics.snapshot()["live.pump.relayed"] == 0
        finally:
            job.shutdown()


class TestDirectChannels:
    def test_healthy_run_relays_nothing(self):
        """Worker↔worker traffic never reaches the master: every wire it
        handles is addressed to the master or the ingester."""
        job = live_job()
        relayed = []
        handle = job._handle_item

        def watch(item):
            if isinstance(item, Wire) and item.dst not in MASTER_SIDE:
                relayed.append(item)
            handle(item)

        job._handle_item = watch
        try:
            edges = list(BASE_EDGES)
            job.feed(edge_stream(edges, BURST))
            job.run_until_converged(timeout=30.0)
            for i in range(6):
                delta = [("f", f"g{i}"), (f"g{i}", f"h{i}")]
                edges += delta
                job.feed(edge_stream(delta, BURST))
                job.run_until_converged(timeout=30.0)
            assert finite_distances(job.main_values()) == reference(edges)
            assert relayed == []
            assert job.metrics.snapshot()["live.pump.relayed"] == 0
            stats = job.worker_stats()
            # ... because it went direct, and all of it arrived.
            assert stats["proc-0"]["channel_sent"]["proc-1"] > 0
            assert stats["proc-1"]["channel_sent"]["proc-0"] > 0
            for src, dst in (("proc-0", "proc-1"), ("proc-1", "proc-0")):
                assert (stats[src]["channel_sent"][dst]
                        == stats[dst]["channel_received"][src])
            for name in stats:
                assert (stats[name]["channel_received"]["master"]
                        == job.net.sent[name])
        finally:
            job.shutdown()


def _flood_peer_that_never_reads(channel):
    """Child-process body: buffer far more than a pipe holds for a peer
    that will never read, then return."""
    net = WorkerNet(LiveKernel(), "proc-0", outbound=None,
                    peers_out={"proc-1": channel})
    for _ in range(64):
        net.send("proc-0", "proc-1", "x" * 65536)


class TestRecovery:
    def test_exit_does_not_wait_for_a_dead_peer(self):
        """Frames buffered for a peer that is gone must not hold up the
        worker's own exit (``cancel_join_thread`` on peer queues)."""
        ctx = multiprocessing.get_context("spawn")
        channel = ctx.Queue()
        child = ctx.Process(target=_flood_peer_that_never_reads,
                            args=(channel,))
        child.start()
        child.join(timeout=20.0)
        try:
            assert child.exitcode == 0
        finally:
            if child.exitcode is None:
                child.kill()
                child.join()
            channel.close()
            channel.cancel_join_thread()

    def test_kill_with_frames_queued_to_the_victim(self):
        """Kill a worker while its peers have frames queued to it: the
        survivors drop the dead channels (and stop counting them), the
        next incarnation is reached through the master, the answer is
        exact and everybody exits on Shutdown."""
        job = live_job(n_processors=3, seed=3)
        victim = "proc-1"
        try:
            edges = list(BASE_EDGES)
            job.feed(edge_stream(edges, BURST))
            job.run_until_converged(timeout=30.0)
            assert job.metrics.snapshot()["live.pump.relayed"] == 0

            os.kill(job._links[victim].process.pid, signal.SIGSTOP)
            delta = [("f", f"n{i}") for i in range(12)] \
                + [(f"n{i}", f"m{i}") for i in range(12)]
            edges += delta
            job.feed(edge_stream(delta, BURST))
            job.pump_for(0.3)
            _unknown, channels = job._channels()
            queued = {channel: counts for channel, counts
                      in channels.items()
                      if channel[1] == victim and channel[0] != "master"
                      and counts[0] > counts[1]}
            assert queued, "no peer had frames queued to the victim"

            job.kill_worker(victim)
            job.pump_for(0.1)
            job.respawn_worker(victim)
            job.run_until_converged(timeout=60.0)
            assert finite_distances(job.main_values()) == reference(edges)
            assert job.reports[victim].incarnation == 1
            assert job.metrics.snapshot()["live.pump.relayed"] > 0
            stats = job.worker_stats()
            assert stats[victim]["channel_sent"] == {}
            assert list(stats[victim]["channel_received"]) == ["master"]
            for name in ("proc-0", "proc-2"):
                assert victim not in stats[name]["channel_sent"]
                assert victim not in stats[name]["channel_received"]
            _unknown, channels = job._channels()
            assert not any(victim in channel and "master" not in channel
                           for channel in channels)
        finally:
            started = time.monotonic()
            job.shutdown()
            assert time.monotonic() - started < 5.0
        assert [link.process.exitcode
                for link in job._links.values()] == [0, 0, 0]
