"""Unit tests for Lamport clocks, reliable transport and partitioning."""

import numpy as np
import pytest

from repro.core.lamport import LamportClock, Timestamp
from repro.core.messages import Envelope, TransportAck
from repro.core.partition import PartitionScheme
from repro.core.transport import ReliableEndpoint, TransportChaos
from repro.simulator import Actor, Network, Simulator


class TestLamportClock:
    def test_tick_monotone(self):
        clock = LamportClock("p0")
        a = clock.tick()
        b = clock.tick()
        assert a < b

    def test_observe_merges(self):
        clock = LamportClock("p0")
        clock.observe(Timestamp(50, "p1"))
        assert clock.tick().counter == 51

    def test_total_order_across_owners(self):
        assert Timestamp(3, "a") < Timestamp(3, "b")
        assert Timestamp(2, "z") < Timestamp(3, "a")


class TestPartitionScheme:
    def test_owner_stable(self):
        scheme = PartitionScheme(["p0", "p1", "p2"])
        assert scheme.owner("v") == scheme.owner("v")

    def test_spreads_vertices(self):
        scheme = PartitionScheme(["p0", "p1", "p2", "p3"])
        owners = {scheme.owner(i) for i in range(200)}
        assert owners == {"p0", "p1", "p2", "p3"}

    def test_reassign_overrides(self):
        scheme = PartitionScheme(["p0", "p1"])
        scheme.reassign("hot", "p1")
        assert scheme.owner("hot") == "p1"
        assert scheme.epoch == 1
        with pytest.raises(ValueError):
            scheme.reassign("hot", "ghost")

    def test_assignments_grouping(self):
        scheme = PartitionScheme(["p0", "p1"])
        grouped = scheme.assignments(list(range(10)))
        assert sorted(v for vs in grouped.values() for v in vs) == list(
            range(10))

    def test_empty_processor_list_rejected(self):
        with pytest.raises(ValueError):
            PartitionScheme([])


class Endpoint(Actor):
    """Test actor that records payloads arriving through its transport."""

    def __init__(self, sim, name, network, timeout=0.5):
        super().__init__(sim, name)
        self.transport = ReliableEndpoint(sim, network, name, timeout)
        self.received = []

    def handle(self, message, sender):
        payload = self.transport.on_message(message, sender)
        if payload is not None:
            self.received.append(payload)
        self.transport.flush_acks()
        return 0.0

    def on_failure(self):
        self.transport.clear()


class TestReliableTransport:
    def make_pair(self, **net_kwargs):
        sim = Simulator()
        network = Network(sim, **net_kwargs)
        a = Endpoint(sim, "a", network)
        b = Endpoint(sim, "b", network)
        return sim, network, a, b

    def test_delivery_and_ack(self):
        sim, _net, a, b = self.make_pair(latency=0.01)
        a.transport.send("b", "hello")
        sim.run(until=1.0)
        assert b.received == ["hello"]
        assert a.transport.unacked == 0

    def test_no_duplicate_processing(self):
        sim, net, a, b = self.make_pair(latency=0.3)
        # Ack latency (0.3+0.3) exceeds the 0.5s timeout: one retransmit
        # happens, and the receiver must dedup it.
        a.transport.send("b", "once")
        sim.run(until=5.0)
        assert b.received == ["once"]
        assert a.transport.retransmissions >= 1
        assert a.transport.unacked == 0

    def test_retransmits_until_receiver_recovers(self):
        sim, _net, a, b = self.make_pair(latency=0.01)
        b.fail()
        a.transport.send("b", "persistent")
        sim.schedule(3.0, b.recover)
        sim.run(until=10.0)
        assert b.received == ["persistent"]
        assert a.transport.retransmissions >= 4

    def test_sender_crash_stops_retransmission(self):
        sim, _net, a, b = self.make_pair(latency=0.01)
        b.fail()
        a.transport.send("b", "lost")
        sim.schedule(1.0, a.fail)
        sim.schedule(2.0, b.recover)
        sim.run(until=10.0)
        assert b.received == []

    def test_receiver_restart_reprocesses_inflight(self):
        """After a receiver restart the dedup table is gone; an unacked
        message is retransmitted and processed (at-least-once)."""
        sim, _net, a, b = self.make_pair(latency=0.3)
        a.transport.send("b", "dup-risk")
        # Crash b right after first delivery; dedup state is lost.
        sim.schedule(0.35, b.fail)
        sim.schedule(0.4, b.recover)
        sim.run(until=5.0)
        assert b.received.count("dup-risk") >= 1


class TestRetransmitTimerHygiene:
    """Regression pins: every path that forgets an unacked message must
    also cancel its retransmit timer.  An orphaned timer re-fires
    forever — harmless-looking in short sims, a slow leak (and ghost
    retransmissions to restarted peers) in long live runs."""

    def make_pair(self, **net_kwargs):
        sim = Simulator()
        network = Network(sim, **net_kwargs)
        a = Endpoint(sim, "a", network)
        b = Endpoint(sim, "b", network)
        return sim, network, a, b

    def test_ack_cancels_retransmit_timer(self):
        sim, _net, a, b = self.make_pair(latency=0.01)
        a.transport.send("b", "hello")
        sim.run(until=0.1)  # delivered + acked well inside the timeout
        assert a.transport.unacked == 0
        # Run far past many timeout periods: a live timer would fire.
        sim.run(until=30.0)
        assert a.transport.retransmissions == 0
        assert b.received == ["hello"]
        # The wheel is genuinely empty — no tombstones left ticking.
        assert sim.pending_events == 0

    def test_purge_unacked_cancels_timers(self):
        sim, _net, a, b = self.make_pair(latency=0.01)
        b.fail()
        a.transport.send("b", "doomed-1")
        a.transport.send("b", "doomed-2")
        sim.run(until=0.1)
        assert a.transport.purge_unacked("b", kinds=(str,)) == 2
        assert a.transport.unacked == 0
        base = a.transport.retransmissions
        sim.schedule(1.0, b.recover)
        sim.run(until=30.0)
        # No ghost retransmissions after the purge, and the recovered
        # receiver never sees the purged payloads.
        assert a.transport.retransmissions == base
        assert b.received == []
        assert sim.pending_events == 0

    def test_purge_is_selective_by_kind(self):
        sim, _net, a, b = self.make_pair(latency=0.01)
        b.fail()
        a.transport.send("b", "stale-string")
        a.transport.send("b", 42)
        sim.run(until=0.1)
        assert a.transport.purge_unacked("b", kinds=(str,)) == 1
        assert a.transport.unacked == 1
        sim.schedule(1.0, b.recover)
        sim.run(until=30.0)
        # The surviving message is still retransmitted to delivery.
        assert b.received == [42]
        assert a.transport.unacked == 0

    def test_purge_without_filter_purges_nothing(self):
        sim, _net, a, b = self.make_pair(latency=0.01)
        b.fail()
        a.transport.send("b", "kept")
        sim.run(until=0.1)
        assert a.transport.purge_unacked("b") == 0
        assert a.transport.unacked == 1
        sim.schedule(1.0, b.recover)
        sim.run(until=30.0)
        assert b.received == ["kept"]

    def test_clear_cancels_every_timer(self):
        sim, _net, a, b = self.make_pair(latency=0.01)
        b.fail()
        for i in range(5):
            a.transport.send("b", f"msg-{i}")
        sim.run(until=0.6)  # at least one retransmit round has fired
        fired = a.transport.retransmissions
        assert fired >= 5
        a.transport.clear()
        sim.schedule(1.0, b.recover)
        sim.run(until=30.0)
        assert a.transport.retransmissions == fired
        assert b.received == []
        assert sim.pending_events == 0

    def test_tags_released_on_purge(self):
        sim, _net, a, b = self.make_pair(latency=0.01)
        b.fail()
        a.transport.send("b", "tagged", tag="main")
        sim.run(until=0.1)
        assert a.transport.pending_by_tag.get("main") == 1
        a.transport.purge_unacked("b", kinds=(str,))
        assert "main" not in a.transport.pending_by_tag


class Replier(Endpoint):
    """Answers every payload not itself a reply, in the same dispatch,
    with one message to ``reply_to`` (its sender by default)."""

    def __init__(self, sim, name, network, reply_to=None):
        super().__init__(sim, name, network)
        self.reply_to = reply_to

    def handle(self, message, sender):
        payload = self.transport.on_message(message, sender)
        if payload is not None:
            self.received.append(payload)
            if not payload.startswith("re:"):
                self.transport.send(self.reply_to or sender, f"re:{payload}")
        self.transport.flush_acks()
        return 0.0


def record_sends(network):
    """Log every ``(src, dst, message)`` the fabric is handed."""
    log = []
    send = network.send

    def recording(src, dst, message):
        log.append((src, dst, message))
        send(src, dst, message)

    network.send = recording
    return log


def acks_from(log, src):
    return [message for sender, _dst, message in log
            if sender == src and isinstance(message, TransportAck)]


class TestPiggybackedAcks:
    def make(self, b_class=Replier, **b_kwargs):
        sim = Simulator()
        network = Network(sim, latency=0.01)
        log = record_sends(network)
        a = Endpoint(sim, "a", network)
        b = b_class(sim, "b", network, **b_kwargs)
        return sim, network, log, a, b

    def test_reply_in_the_same_dispatch_carries_the_ack(self):
        sim, _net, log, a, b = self.make()
        a.transport.send("b", "ping")
        sim.run(until=1.0)
        assert b.received == ["ping"] and a.received == ["re:ping"]
        assert acks_from(log, "b") == []
        reply = [message for src, _dst, message in log if src == "b"]
        assert reply == [Envelope(1, "re:ping", ack=1)]
        # a sends nothing back, so it acks the reply with a bare ack.
        assert acks_from(log, "a") == [TransportAck(1)]
        assert a.transport.unacked == 0 and b.transport.unacked == 0
        assert a.transport.retransmissions == 0
        assert b.transport.retransmissions == 0

    def test_no_reply_sends_one_ack_after_the_handlers_sends(self):
        sim, network, log, a, b = self.make(reply_to="c")
        Endpoint(sim, "c", network)
        a.transport.send("b", "ping")
        sim.run(until=1.0)
        from_b = [(dst, message) for src, dst, message in log if src == "b"]
        assert from_b == [("c", Envelope(1, "re:ping")),
                          ("a", TransportAck(1))]
        assert a.transport.unacked == 0 and b.transport.unacked == 0

    def test_duplicate_envelope_is_acked(self):
        sim, _net, log, _a, b = self.make(b_class=Endpoint)
        b.deliver(Envelope(5, "x"), "a")
        b.deliver(Envelope(5, "x"), "a")
        sim.run(until=1.0)
        assert b.received == ["x"]
        assert acks_from(log, "b") == [TransportAck(5), TransportAck(5)]

    def test_lost_piggybacked_ack_is_recovered_by_retransmission(self):
        sim, _net, log, a, b = self.make()
        chaos = TransportChaos(np.random.default_rng(0), drop_rate=1.0)
        b.transport.chaos = chaos
        chaos.enable()
        a.transport.send("b", "ping")
        sim.run(until=0.1)
        # The reply, and the ack it carried, never left b.
        assert chaos.dropped == 1
        assert a.received == [] and a.transport.unacked == 1
        chaos.disable()
        sim.run(until=2.0)
        # a retransmitted, b deduplicated the copy and acked it bare.
        assert a.transport.retransmissions == 1
        assert b.received == ["ping"] and a.received == ["re:ping"]
        assert acks_from(log, "b") == [TransportAck(1)]
        assert a.transport.unacked == 0 and b.transport.unacked == 0
