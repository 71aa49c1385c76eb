"""Regression tests for the acker's event-leak and reordering fixes."""

from repro.simulator import Actor, Network, Simulator
from repro.storm.acker import (ACK_FAIL, ACK_INIT, ACK_VAL, TREE_DONE,
                               TREE_FAILED, Acker)


class _SpoutStub(Actor):
    """Records the (outcome, message_id) notices the acker sends back."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.outcomes = []

    def handle(self, message, sender):
        self.outcomes.append(message)
        return 0.0


def _setup(tuple_timeout=5.0):
    sim = Simulator(seed=1)
    network = Network(sim, latency=1e-4)
    acker = Acker(sim, "acker", network, tuple_timeout=tuple_timeout)
    spout = _SpoutStub(sim, "spout")
    return sim, network, acker, spout


def _live_events(sim):
    return [e for _time, _seq, e in sim._queue._heap if not e.cancelled]


class TestTimeoutEventLeak:
    def test_completed_tree_cancels_its_timeout(self):
        sim, network, acker, spout = _setup()
        network.send("spout", "acker", (ACK_INIT, 7, "spout", "m-7"))
        network.send("spout", "acker", (ACK_VAL, 7, 7))
        sim.run()
        assert acker.completed == 1
        assert acker.pending_trees == 0
        # The fix: no live _check_timeout event outlives its tree.
        assert _live_events(sim) == []

    def test_failed_tree_cancels_its_timeout(self):
        sim, network, acker, spout = _setup()
        network.send("spout", "acker", (ACK_INIT, 9, "spout", "m-9"))
        network.send("spout", "acker", (ACK_FAIL, 9))
        sim.run()
        assert acker.failed == 1
        assert _live_events(sim) == []

    def test_sustained_load_leaves_no_event_backlog(self):
        sim, network, acker, spout = _setup(tuple_timeout=1000.0)
        for root in range(1, 201):
            network.send("spout", "acker",
                         (ACK_INIT, root, "spout", f"m-{root}"))
            network.send("spout", "acker", (ACK_VAL, root, root))
        sim.run()
        assert acker.completed == 200
        # Before the fix every completed tuple left one dead heap entry
        # alive for tuple_timeout virtual seconds (200 here).
        assert _live_events(sim) == []

    def test_reinit_of_same_root_cancels_stale_timeout(self):
        sim, network, acker, spout = _setup(tuple_timeout=2.0)
        network.send("spout", "acker", (ACK_INIT, 3, "spout", "m-3a"))
        sim.run(until=1.0)
        # Replay re-registers the same root before the first timed out.
        network.send("spout", "acker", (ACK_INIT, 3, "spout", "m-3b"))
        network.send("spout", "acker", (ACK_VAL, 3, 3))
        sim.run()
        assert acker.completed == 1
        assert acker.failed == 0
        assert _live_events(sim) == []

    def test_timeout_still_fails_stuck_trees(self):
        sim, network, acker, spout = _setup(tuple_timeout=2.0)
        network.send("spout", "acker", (ACK_INIT, 5, "spout", "m-5"))
        sim.run()
        assert acker.failed == 1
        assert (TREE_FAILED, "m-5") in spout.outcomes


class TestEarlyAckVal:
    def test_ack_val_before_init_completes_tree(self):
        sim, network, acker, spout = _setup()
        # Reordered delivery: the child's ack beats the spout's init.
        network.send("bolt", "acker", (ACK_VAL, 11, 11))
        sim.run(until=0.1)
        assert acker.pending_trees == 0
        assert acker.buffered_early_roots == 1
        network.send("spout", "acker", (ACK_INIT, 11, "spout", "m-11"))
        sim.run()
        assert acker.completed == 1
        assert (TREE_DONE, "m-11") in spout.outcomes
        assert acker.buffered_early_roots == 0
        assert _live_events(sim) == []

    def test_multiple_early_vals_fold_together(self):
        sim, network, acker, spout = _setup()
        # Two tuples of the same tree: emit-xor and ack-xor of a child
        # (13) plus the root's own ack (21): 13 ^ 13 ^ 21 == 21.
        network.send("bolt", "acker", (ACK_VAL, 21, 13))
        network.send("bolt", "acker", (ACK_VAL, 21, 13))
        network.send("bolt", "acker", (ACK_VAL, 21, 21))
        sim.run(until=0.1)
        assert acker.early_vals_buffered == 3
        network.send("spout", "acker", (ACK_INIT, 21, "spout", "m-21"))
        sim.run()
        assert acker.completed == 1

    def test_unclaimed_early_val_expires(self):
        sim, network, acker, spout = _setup(tuple_timeout=2.0)
        network.send("bolt", "acker", (ACK_VAL, 99, 99))
        sim.run()
        assert acker.buffered_early_roots == 0
        assert _live_events(sim) == []
        # An init arriving after expiry starts a clean tree.
        network.send("spout", "acker", (ACK_INIT, 99, "spout", "m-99"))
        network.send("spout", "acker", (ACK_VAL, 99, 99))
        sim.run()
        assert acker.completed == 1
