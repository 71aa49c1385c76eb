"""Unit tests for the DES kernel: clock, event ordering, cancellation."""

import pytest

from repro.errors import SimulationError
from repro.simulator import EventQueue, Simulator


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        fired = []
        queue.push(2.0, fired.append, "b")
        queue.push(1.0, fired.append, "a")
        queue.push(3.0, fired.append, "c")
        while (event := queue.pop()) is not None:
            event.callback(*event.args)
        assert fired == ["a", "b", "c"]

    def test_fifo_within_same_time(self):
        queue = EventQueue()
        order = [queue.push(1.0, lambda: None).seq for _ in range(5)]
        popped = []
        while (event := queue.pop()) is not None:
            popped.append(event.seq)
        assert popped == order

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        keep = queue.push(1.0, lambda: None)
        drop = queue.push(0.5, lambda: None)
        drop.cancel()
        assert queue.pop() is keep
        assert queue.pop() is None

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        drop = queue.push(0.5, lambda: None)
        queue.push(2.0, lambda: None)
        drop.cancel()
        assert queue.peek().time == 2.0

    def test_nan_time_rejected(self):
        queue = EventQueue()
        with pytest.raises(SimulationError):
            queue.push(float("nan"), lambda: None)


class TestSimulator:
    def test_clock_advances_to_event_times(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.schedule(0.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [0.5, 1.5]
        assert sim.now == 1.5

    def test_run_until_time_bound(self):
        sim = Simulator()
        seen = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, seen.append, t)
        sim.run(until=2.5)
        assert seen == [1.0, 2.0]
        assert sim.now == 2.5
        sim.run()
        assert seen == [1.0, 2.0, 3.0]

    def test_run_max_events(self):
        sim = Simulator()
        seen = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, seen.append, t)
        sim.run(max_events=2)
        assert seen == [1.0, 2.0]

    def test_scheduling_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_events_scheduled_during_run_fire(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append("first")
            sim.schedule(1.0, lambda: seen.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert seen == ["first", "second"]
        assert sim.now == 2.0

    def test_stop_interrupts_run(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: (seen.append(1), sim.stop()))
        sim.schedule(2.0, lambda: seen.append(2))
        sim.run()
        assert seen == [1]

    def test_run_until_predicate(self):
        sim = Simulator()
        box = {"n": 0}

        def bump():
            box["n"] += 1
            sim.schedule(1.0, bump)

        sim.schedule(1.0, bump)
        sim.run_until(lambda: box["n"] >= 5)
        assert box["n"] == 5

    def test_run_until_raises_when_queue_drains(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.run_until(lambda: False)

    def test_duplicate_actor_names_rejected(self):
        from repro.simulator import Actor

        class Noop(Actor):
            def handle(self, message, sender):
                return 0.0

        sim = Simulator()
        Noop(sim, "a")
        with pytest.raises(SimulationError):
            Noop(sim, "a")

    def test_unknown_actor_lookup_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.actor("ghost")
