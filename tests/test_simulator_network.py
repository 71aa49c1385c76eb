"""Unit tests for the simulated network and disks."""

import pytest

from repro.simulator import Network, SimulatedDisk, Simulator
from tests.test_simulator_actors import Recorder


class TestNetwork:
    def test_latency_applied(self):
        sim = Simulator()
        net = Network(sim, latency=0.25)
        dst = Recorder(sim, "dst", cost=0.0)
        Recorder(sim, "src", cost=0.0)
        net.send("src", "dst", "hello")
        sim.run()
        assert dst.seen == [(0.25, "hello", "src")]

    def test_capacity_queues_messages(self):
        sim = Simulator()
        net = Network(sim, latency=0.0, capacity=2.0)  # 2 msgs/sec
        dst = Recorder(sim, "dst", cost=0.0)
        Recorder(sim, "src", cost=0.0)
        for i in range(4):
            net.send("src", "dst", i)
        sim.run()
        times = [t for t, _m, _s in dst.seen]
        # Fabric departures are spaced 0.5s apart once saturated.
        assert times == pytest.approx([0.0, 0.5, 1.0, 1.5])

    def test_local_messages_bypass_capacity(self):
        sim = Simulator()
        net = Network(sim, latency=1.0, capacity=1.0, local_latency=0.01)
        dst = Recorder(sim, "dst", cost=0.0)
        Recorder(sim, "src", cost=0.0)
        net.colocate("src", "node1")
        net.colocate("dst", "node1")
        for i in range(3):
            net.send("src", "dst", i)
        sim.run()
        times = [t for t, _m, _s in dst.seen]
        assert times == pytest.approx([0.01, 0.01, 0.01])

    def test_messages_to_down_actor_dropped(self):
        sim = Simulator()
        net = Network(sim, latency=0.1)
        dst = Recorder(sim, "dst", cost=0.0)
        Recorder(sim, "src", cost=0.0)
        dst.fail()
        net.send("src", "dst", "lost")
        sim.run()
        assert dst.seen == []
        assert net.stats.dropped == 1

    def test_partition_blocks_direction(self):
        sim = Simulator()
        net = Network(sim, latency=0.1)
        dst = Recorder(sim, "dst", cost=0.0)
        src = Recorder(sim, "src", cost=0.0)
        net.block("src", "dst")
        net.send("src", "dst", "blocked")
        net.send("dst", "src", "ok")
        sim.run()
        assert dst.seen == []
        assert [m for _t, m, _s in src.seen] == ["ok"]
        net.unblock("src", "dst")
        net.send("src", "dst", "now ok")
        sim.run()
        assert [m for _t, m, _s in dst.seen] == ["now ok"]

    def test_stats_count_throughput(self):
        sim = Simulator()
        net = Network(sim, latency=0.0)
        Recorder(sim, "dst", cost=0.0)
        Recorder(sim, "src", cost=0.0)
        for _ in range(10):
            net.send("src", "dst", "m")
        sim.run()
        assert net.stats.sent == 10
        assert net.stats.delivered == 10

    def test_jitter_is_deterministic_per_seed(self):
        def run(seed):
            sim = Simulator(seed=seed)
            net = Network(sim, latency=0.1, jitter=0.05)
            dst = Recorder(sim, "dst", cost=0.0)
            Recorder(sim, "src", cost=0.0)
            for i in range(5):
                net.send("src", "dst", i)
            sim.run()
            return [t for t, _m, _s in dst.seen]

        assert run(3) == run(3)
        assert run(3) != run(4)


class TestDisk:
    def test_write_cost_model(self):
        sim = Simulator()
        disk = SimulatedDisk(sim, "d0", seek_cost=1.0, record_cost=0.1)
        done = []
        disk.write(10, lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(2.0)]
        assert disk.records_written == 10

    def test_requests_serialise(self):
        sim = Simulator()
        disk = SimulatedDisk(sim, "d0", seek_cost=1.0, record_cost=0.0)
        done = []
        disk.write(0, lambda tag: done.append((tag, sim.now)), "a")
        disk.write(0, lambda tag: done.append((tag, sim.now)), "b")
        sim.run()
        assert done == [("a", 1.0), ("b", 2.0)]

    def test_read_counters(self):
        sim = Simulator()
        disk = SimulatedDisk(sim, "d0")
        disk.read(7)
        sim.run()
        assert disk.records_read == 7
        assert disk.requests == 1
