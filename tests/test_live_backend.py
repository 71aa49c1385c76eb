"""Unit tests for the live backend's building blocks: the LiveKernel
facade, the journaling WorkerStore, the incarnation-namespaced
transport, the queue fabric, and the oracle's canonicalisation."""

import queue

import pytest

from repro.errors import SimulationError
from repro.live.kernel import LiveKernel
from repro.live.oracle import _canon
from repro.live.store import LiveBackend, WorkerStore
from repro.live.transport import (INCARNATION_STRIDE, LiveTransport,
                                  MasterNet, WorkerNet)
from repro.live.wire import StoreWrite, Wire


class FakeQueue:
    """An in-process stand-in for one ``mp.Queue``."""

    def __init__(self, *items):
        self.items = list(items)
        self.closed = False

    def put(self, item):
        self.items.append(item)

    def get_nowait(self):
        if not self.items:
            raise queue.Empty
        return self.items.pop(0)

    def cancel_join_thread(self):
        pass

    def close(self):
        self.closed = True


class FakeLink:
    def __init__(self, alive=True):
        self.queue_in = FakeQueue()
        self.alive = alive


class TestLiveKernel:
    def test_ready_fifo_order(self):
        kernel = LiveKernel()
        ran = []
        kernel.schedule(0.5, ran.append, "first")
        kernel.schedule(0.0, ran.append, "second")
        kernel.run_ready()
        # Delay is a virtual cost, not an ordering key: FIFO wins.
        assert ran == ["first", "second"]

    def test_negative_delay_rejected(self):
        kernel = LiveKernel()
        with pytest.raises(SimulationError):
            kernel.schedule(-1.0, lambda: None)

    def test_run_ready_limit_bounds_batch(self):
        kernel = LiveKernel()
        ran = []
        for i in range(10):
            kernel.schedule(0.0, ran.append, i)
        assert kernel.run_ready(limit=4) == 4
        assert kernel.ready_count == 6

    def test_cancelled_handle_not_run(self):
        kernel = LiveKernel()
        ran = []
        handle = kernel.schedule(0.0, ran.append, "no")
        handle.cancel()
        kernel.run_ready()
        assert ran == []

    def test_timer_fires_only_after_deadline(self):
        kernel = LiveKernel()
        ran = []
        kernel.schedule_timer(30.0, ran.append, "later")
        assert kernel.fire_due_timers() == 0
        assert ran == []
        delay = kernel.next_timer_delay()
        assert delay is not None and delay > 25.0

    def test_cancelled_timer_skipped(self):
        kernel = LiveKernel()
        handle = kernel.schedule_timer(0.0, lambda: None)
        handle.cancel()
        assert kernel.fire_due_timers() == 0
        assert kernel.next_timer_delay() is None

    def test_release_parked_in_timestamp_order(self):
        kernel = LiveKernel()
        ran = []
        kernel.schedule_at(2.0, ran.append, "late")
        kernel.schedule_at(1.0, ran.append, "early")
        assert kernel.parked_count == 2
        kernel.release_parked()
        kernel.run_ready()
        assert ran == ["early", "late"]
        assert kernel.parked_count == 0

    def test_lamport_clock_merges(self):
        kernel = LiveKernel()
        first = kernel.tick()
        kernel.observe(100)
        assert kernel.tick() > 100 > first
        # now is the counter, never wall time.
        stamp = kernel.tick()
        assert kernel.now == float(stamp)


class TestWorkerStore:
    def test_puts_are_journaled(self):
        store = WorkerStore()
        store.put("main", "v", 1, "x")
        store.put_many("main", [("w", 1, "y")])
        journal = store.take_journal()
        assert journal == [("main", "v", 1, "x"), ("main", "w", 1, "y")]
        assert store.take_journal() == []

    def test_hydrate_does_not_journal(self):
        store = WorkerStore()
        assert store.hydrate([("main", "v", 3, "z")]) == 1
        assert store.take_journal() == []
        assert store.get("main", "v", 3) == "z"

    def test_backend_ships_journal_with_frontiers(self):
        store = WorkerStore()
        net_outbound = FakeQueue()

        class Net:
            @staticmethod
            def send_control(frame):
                net_outbound.put(frame)

        backend = LiveBackend(store, Net(), "proc-0")
        store.put("main", "v", 1, "x")
        called = []
        backend.flush(1, lambda *a: called.append(a), "snapshots",
                      (("main", 1),))
        assert called == [("snapshots", (("main", 1),))]
        (frame,) = net_outbound.items
        assert isinstance(frame, StoreWrite)
        assert frame.processor == "proc-0"
        assert frame.entries == (("main", "v", 1, "x"),)
        assert frame.frontiers == (("main", 1),)

    def test_empty_flush_ships_nothing(self):
        store = WorkerStore()
        net_outbound = FakeQueue()

        class Net:
            @staticmethod
            def send_control(frame):
                net_outbound.put(frame)

        backend = LiveBackend(store, Net(), "proc-0")
        backend.flush(0, lambda: None)
        assert net_outbound.items == []


class TestLiveFabric:
    def test_worker_net_wraps_remote_sends(self):
        kernel = LiveKernel()
        outbound = FakeQueue()
        net = WorkerNet(kernel, "proc-0", outbound)
        net.send("proc-0", "proc-1", "payload")
        (wire,) = outbound.items
        assert isinstance(wire, Wire)
        assert (wire.src, wire.dst, wire.payload) == \
            ("proc-0", "proc-1", "payload")
        assert wire.stamp == kernel._counter  # stamped at send time

    def test_master_net_drops_to_dead_worker(self):
        kernel = LiveKernel()
        links = {"proc-0": FakeLink(alive=True),
                 "proc-1": FakeLink(alive=False)}
        net = MasterNet(kernel, links)
        net.send("master", "proc-0", "up")
        net.send("master", "proc-1", "down")
        net.send("master", "ghost", "nowhere")
        assert len(links["proc-0"].queue_in.items) == 1
        assert links["proc-1"].queue_in.items == []
        assert net.dropped == 2

    def test_incarnation_namespaces_message_ids(self):
        """A respawned worker restarts its id counter; without the
        incarnation offset its fresh envelopes would collide with ids
        its peers' dedup windows remember from the previous life."""
        kernel = LiveKernel()
        outbound = FakeQueue()
        net = WorkerNet(kernel, "proc-0", outbound)
        old = LiveTransport(kernel, net, "proc-0", incarnation=0)
        new = LiveTransport(kernel, net, "proc-0", incarnation=1)
        old.send("proc-1", "from-first-life")
        new.send("proc-1", "from-second-life")
        old_env = outbound.items[0].payload
        new_env = outbound.items[1].payload
        assert old_env.msg_id == 1
        assert new_env.msg_id == INCARNATION_STRIDE + 1
        assert old_env.msg_id != new_env.msg_id


class TestOracleCanon:
    def test_dict_order_independent(self):
        forward = {1: "a", 2: "b", 3: "c"}
        backward = {}
        for key in reversed(list(forward)):
            backward[key] = forward[key]
        assert _canon(forward) == _canon(backward)

    def test_set_order_independent(self):
        assert _canon({"x", "y", "z"}) == _canon({"z", "x", "y"})

    def test_nested_dataclass(self):
        from repro.algorithms.sssp import SSSPValue
        a = SSSPValue(2.0, {"s": 2.0}, {"t": 1.0}, set())
        b = SSSPValue(2.0, {"s": 2.0}, {"t": 1.0}, set())
        assert _canon(a) == _canon(b)
        c = SSSPValue(3.0, {"s": 3.0}, {"t": 1.0}, set())
        assert _canon(a) != _canon(c)

    def test_negative_zero_normalised(self):
        assert _canon(-0.0) == _canon(0.0)
        assert _canon(1.5) != _canon(-1.5)
