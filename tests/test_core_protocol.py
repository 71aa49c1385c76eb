"""Unit tests for the three-phase update protocol state machine."""

import pytest

from repro.core.lamport import LamportClock, Timestamp
from repro.core.protocol import (CommitUpdate, SendAck, SendPrepare,
                                 VertexProtocol)
from repro.errors import ProtocolError


def clock(owner="p0"):
    return LamportClock(owner)


class TestPhaseOne:
    def test_gathered_update_advances_iteration(self):
        protocol = VertexProtocol("x")
        protocol.gathered_update("y", iteration=4, changed=True)
        assert protocol.iteration == 5
        assert protocol.dirty

    def test_gathered_update_never_regresses_iteration(self):
        protocol = VertexProtocol("x", iteration=10)
        protocol.gathered_update("y", iteration=3, changed=True)
        assert protocol.iteration == 10

    def test_unchanged_gather_does_not_dirty(self):
        protocol = VertexProtocol("x")
        protocol.gathered_update("y", iteration=0, changed=False)
        assert not protocol.dirty
        assert protocol.iteration == 1

    def test_input_attaches_at_frontier(self):
        protocol = VertexProtocol("x", iteration=2)
        protocol.gathered_input(frontier=7, changed=True)
        assert protocol.iteration == 7
        protocol.gathered_input(frontier=3, changed=True)
        assert protocol.iteration == 7

    def test_update_removes_producer_from_prepare_list(self):
        protocol = VertexProtocol("x")
        protocol.received_prepare("y", Timestamp(1, "p1"))
        assert "y" in protocol.prepare_list
        protocol.gathered_update("y", iteration=0, changed=True)
        assert "y" not in protocol.prepare_list


class TestPrepare:
    def test_prepares_all_consumers(self):
        protocol = VertexProtocol("x")
        protocol.gathered_update("y", 0, changed=True)
        actions = protocol.try_prepare(clock(), ["a", "b"])
        assert {a.consumer for a in actions
                if isinstance(a, SendPrepare)} == {"a", "b"}
        assert protocol.preparing
        assert protocol.prepares_sent == 2

    def test_no_consumers_commits_immediately(self):
        protocol = VertexProtocol("x")
        protocol.gathered_update("y", 3, changed=True)
        actions = protocol.try_prepare(clock(), [])
        assert actions == [CommitUpdate(4)]
        assert not protocol.dirty
        assert protocol.commits == 1

    def test_skip_prepare_fast_path(self):
        protocol = VertexProtocol("x")
        protocol.gathered_update("y", 3, changed=True)
        actions = protocol.try_prepare(clock(), ["a"], skip_prepare=True)
        assert actions == [CommitUpdate(4)]
        assert protocol.prepares_sent == 0

    def test_clean_vertex_does_not_prepare(self):
        protocol = VertexProtocol("x")
        assert protocol.try_prepare(clock(), ["a"]) == []

    def test_blocked_by_producers_prepare(self):
        protocol = VertexProtocol("x")
        protocol.received_prepare("y", Timestamp(1, "p1"))
        protocol.gathered_input(frontier=0, changed=True)
        assert protocol.try_prepare(clock(), ["a"]) == []
        assert protocol.blocked
        # The producer's commit unblocks us.
        protocol.gathered_update("y", 0, changed=False)
        actions = protocol.try_prepare(clock(), ["a"])
        assert any(isinstance(a, SendPrepare) for a in actions)

    def test_cannot_prepare_twice(self):
        protocol = VertexProtocol("x")
        protocol.gathered_input(frontier=0, changed=True)
        protocol.try_prepare(clock(), ["a"])
        assert protocol.try_prepare(clock(), ["a"]) == []


class TestAckAndCommit:
    def test_commit_at_max_consumer_iteration(self):
        protocol = VertexProtocol("x")
        protocol.gathered_update("y", 1, changed=True)  # iteration -> 2
        protocol.try_prepare(clock(), ["a", "b"])
        assert protocol.received_ack("a", 9) == []
        actions = protocol.received_ack("b", 4)
        assert actions == [CommitUpdate(9)]

    def test_commit_keeps_own_iteration_when_larger(self):
        protocol = VertexProtocol("x")
        protocol.gathered_update("y", 10, changed=True)  # iteration 11
        protocol.try_prepare(clock(), ["a"])
        actions = protocol.received_ack("a", 2)
        assert actions == [CommitUpdate(11)]

    def test_pended_producers_acked_at_commit(self):
        protocol = VertexProtocol("x")
        protocol.gathered_input(frontier=0, changed=True)
        protocol.try_prepare(clock(), ["a"])
        # A producer with a LATER update-time is pended, not acked.
        later = Timestamp(99, "p9")
        assert protocol.received_prepare("y", later) == []
        assert protocol.pending_list == ["y"]
        actions = protocol.received_ack("a", 5)
        kinds = [type(a) for a in actions]
        assert kinds == [CommitUpdate, SendAck]
        assert actions[1].producer == "y"
        assert actions[1].iteration == 5

    def test_earlier_producer_prepare_acked_immediately(self):
        protocol = VertexProtocol("x", iteration=3)
        protocol.gathered_input(frontier=3, changed=True)
        protocol.try_prepare(clock(), ["a"])
        earlier = Timestamp(0, "p0")
        actions = protocol.received_prepare("y", earlier)
        assert actions == [SendAck("y", 3)]

    def test_idle_vertex_acks_prepares(self):
        protocol = VertexProtocol("x", iteration=7)
        actions = protocol.received_prepare("y", Timestamp(5, "p1"))
        assert actions == [SendAck("y", 7)]

    def test_stray_ack_ignored_but_raises_iteration(self):
        protocol = VertexProtocol("x")
        assert protocol.received_ack("a", 12) == []
        assert protocol.iteration == 12
        assert not protocol.dirty

    def test_commit_of_clean_vertex_rejected(self):
        protocol = VertexProtocol("x")
        with pytest.raises(ProtocolError):
            protocol._commit()


class TestDeadlockFreedom:
    def test_mutual_prepare_resolves_by_lamport_order(self):
        """Two vertices consuming each other both prepare; the later one
        yields and commits only after the earlier one."""
        shared = clock("p")
        x, y = VertexProtocol("x"), VertexProtocol("y")
        x.gathered_input(0, changed=True)
        y.gathered_input(0, changed=True)
        x_actions = x.try_prepare(shared, ["y"])
        y_actions = y.try_prepare(shared, ["x"])
        x_time = x_actions[0].update_time
        y_time = y_actions[0].update_time
        assert x_time < y_time
        # y receives x's earlier PREPARE: must ack (x happens first).
        assert y.received_prepare("x", x_time) == [SendAck("x", 0)]
        # x receives y's later PREPARE: pends it.
        assert x.received_prepare("y", y_time) == []
        # x commits on y's ack, releasing the pended reply to y.
        x_commit = x.received_ack("y", 0)
        assert isinstance(x_commit[0], CommitUpdate)
        ack_to_y = [a for a in x_commit if isinstance(a, SendAck)]
        assert ack_to_y and ack_to_y[0].producer == "y"
        # y now commits too: no deadlock.
        y_commit = y.received_ack("x", ack_to_y[0].iteration)
        assert isinstance(y_commit[0], CommitUpdate)

