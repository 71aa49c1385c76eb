"""Unit tests for the kernel's timer wheel, tombstone compaction and
same-instant message coalescing — plus the bugfixes that rode along
(run_until honouring stop(), transport tag-leak, network stats
bucketing)."""

import pytest

from repro.core.transport import ReliableEndpoint
from repro.errors import SimulationError
from repro.simulator import (Actor, EventQueue, Network, Simulator,
                             TimerWheel)
from repro.simulator.events import COMPACT_MIN_SIZE


def _noop():
    pass


class TestTimerWheel:
    def test_peek_returns_earliest_across_spokes(self):
        wheel = TimerWheel()
        late = wheel.schedule(5.0, 5.0, _noop, ())
        early = wheel.schedule(1.0, 1.0, _noop, ())
        assert wheel.peek() is early
        wheel.pop(early)
        assert wheel.peek() is late

    def test_same_time_breaks_ties_by_seq(self):
        wheel = TimerWheel()
        first = wheel.schedule(2.0, 1.0, _noop, ())
        second = wheel.schedule(2.0, 2.0, _noop, ())
        assert first.seq < second.seq
        assert wheel.peek() is first

    def test_cancel_truly_removes(self):
        wheel = TimerWheel()
        timers = [wheel.schedule(float(i), 1.0, _noop, ())
                  for i in range(1, 6)]
        timers[2].cancel()
        assert wheel.pending == 4
        assert len(wheel) == 4
        order = []
        while wheel.peek() is not None:
            timer = wheel.peek()
            wheel.pop(timer)
            order.append(timer.time)
        assert order == [1.0, 2.0, 4.0, 5.0]

    def test_cancel_after_pop_is_noop(self):
        wheel = TimerWheel()
        timer = wheel.schedule(1.0, 1.0, _noop, ())
        wheel.pop(timer)
        timer.cancel()  # a late cancel, after the timer fired, is harmless
        assert wheel.pending == 0

    def test_non_monotone_deadline_refused(self):
        wheel = TimerWheel()
        wheel.schedule(5.0, 1.0, _noop, ())
        assert wheel.schedule(4.0, 1.0, _noop, ()) is None
        # A different spoke is unaffected by the first one's tail.
        assert wheel.schedule(4.0, 2.0, _noop, ()) is not None

    def test_has_deadline_lifecycle(self):
        wheel = TimerWheel()
        a = wheel.schedule(3.0, 1.0, _noop, ())
        b = wheel.schedule(3.0, 2.0, _noop, ())
        assert wheel.has_deadline(3.0)
        a.cancel()
        assert wheel.has_deadline(3.0)
        wheel.pop(b)
        assert not wheel.has_deadline(3.0)

    def test_clear(self):
        wheel = TimerWheel()
        timer = wheel.schedule(1.0, 1.0, _noop, ())
        wheel.clear()
        assert wheel.pending == 0
        assert wheel.peek() is None
        timer.cancel()  # must not blow up on an unlinked node
        assert wheel.delays == ()


class TestTombstoneCompaction:
    def test_compaction_drops_cancelled_majority(self):
        queue = EventQueue()
        events = [queue.push(float(i), _noop) for i in range(2 * COMPACT_MIN_SIZE)]
        cancelled = COMPACT_MIN_SIZE + 8
        for event in events[:cancelled]:
            event.cancel()
        # Compaction fired at the majority threshold: most tombstones are
        # gone (only the post-rebuild stragglers remain) and the heap has
        # shrunk to live entries plus those stragglers.
        assert queue.pending == len(events) - cancelled
        assert queue.tombstones < cancelled // 2
        assert len(queue) == queue.pending + queue.tombstones

    def test_small_heaps_not_compacted(self):
        queue = EventQueue()
        events = [queue.push(float(i), _noop) for i in range(8)]
        for event in events[:6]:
            event.cancel()
        assert queue.tombstones == 6

    def test_pop_order_survives_compaction(self):
        queue = EventQueue()
        events = [queue.push(float(i), _noop, i) for i in range(200)]
        for event in events[::2]:
            event.cancel()
        popped = []
        while True:
            event = queue.pop()
            if event is None:
                break
            popped.append(event.args[0])
        assert popped == list(range(1, 200, 2))

    def test_double_cancel_counts_once(self):
        queue = EventQueue()
        queue.push(1.0, _noop)
        event = queue.push(2.0, _noop)
        event.cancel()
        event.cancel()
        assert queue.pending == 1
        assert queue.tombstones == 1


class _Sink(Actor):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def handle(self, message, sender):
        self.received.append(message)
        return 0.0


class TestCoalescing:
    def _burst(self, fanout=32):
        sim = Simulator()
        network = Network(sim, latency=1e-3)
        _Sink(sim, "src")
        sink = _Sink(sim, "sink")
        for index in range(fanout):
            network.send("src", "sink", index)
        return sim, network, sink

    def test_burst_folds_into_one_heap_entry(self):
        sim, _network, _sink = self._burst()
        assert len(sim._queue) == 1
        assert sim.pending_events == 32

    def test_delivery_order_and_stats_match_legacy(self):
        """The values a heap-only kernel produced: 32 deliveries, then
        the sink's 32 serve events and the one that finds it idle."""
        sim, network, sink = self._burst()
        sim.run()
        assert sink.received == list(range(32))
        assert network.stats.sent == 32
        assert sim.events_processed == 65

    def test_batch_survives_max_events_interruption(self):
        sim, _network, sink = self._burst(fanout=16)
        # A budget of 10 interrupts the run inside the 16-delivery batch
        # (each unit counts as one event); the kernel must suspend the
        # batch and resume it exactly where it left off.
        sim.run(max_events=10)
        assert sim._batch is not None
        assert 0 < sim._batch_index < 16
        sim.run()
        assert sim._batch is None
        assert sink.received == list(range(16))

    def test_timer_at_same_instant_blocks_coalescing(self):
        sim = Simulator()
        deliveries = []
        sim.schedule_message(1.0, deliveries.append, "a")
        sim.schedule_timer(1.0, deliveries.append, "t")
        # The batch at t=1.0 may not absorb this send: the wheel timer in
        # between must fire before it.
        sim.schedule_message(1.0, deliveries.append, "b")
        assert len(sim._queue) == 2
        sim.run()
        assert deliveries == ["a", "t", "b"]


class TestRunUntilStop:
    def test_stop_inside_run_until_returns(self):
        sim = Simulator()
        fired = []

        def tick(n):
            fired.append(n)
            if n == 3:
                sim.stop()
            else:
                sim.schedule(1.0, tick, n + 1)

        sim.schedule(1.0, tick, 0)
        end = sim.run_until(lambda: False, max_events=1000)
        assert fired == [0, 1, 2, 3]
        assert end == pytest.approx(4.0)

    def test_run_until_still_raises_on_drain(self):
        sim = Simulator()
        sim.schedule(1.0, _noop)
        with pytest.raises(SimulationError):
            sim.run_until(lambda: False)


class _TransportActor(Actor):
    def __init__(self, sim, name, network):
        super().__init__(sim, name)
        self.transport = ReliableEndpoint(sim, network, name, timeout=0.5)

    def handle(self, message, sender):
        self.transport.on_message(message, sender)
        self.transport.flush_acks()
        return 0.0


class TestTransportTagLeak:
    def test_acked_tags_drop_their_keys(self):
        sim = Simulator()
        network = Network(sim, latency=0.01)
        a = _TransportActor(sim, "a", network)
        _TransportActor(sim, "b", network)
        for loop in ("loop-0", "loop-1"):
            for _ in range(3):
                a.transport.send("b", "payload", tag=loop)
        sim.run(until=2.0)
        assert a.transport.unacked == 0
        # The fix: fully-acked tags disappear instead of lingering at 0.
        assert a.transport.pending_by_tag == {}


class TestNetworkStatsBuckets:
    def test_record_sent_single_bucket_increment(self):
        sim = Simulator()
        network = Network(sim, latency=0.01)
        _Sink(sim, "src")
        _Sink(sim, "sink")
        network.send("src", "sink", "x")
        network.send("src", "sink", "y")
        sim.run()
        assert network.stats.sent == 2
