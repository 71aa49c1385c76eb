"""The three-phase update protocol (paper §4.2, Figure 3) as a pure state
machine.

One :class:`VertexProtocol` instance tracks the protocol state of one vertex
in one loop.  The surrounding processor feeds it events (update gathered,
prepare received, ...) and executes the returned :class:`Action` objects
(messages to send, commits to perform).  Keeping the machine pure makes the
trickiest part of the paper unit-testable without the simulator.

Protocol recap — the update of a vertex ``x`` runs in three phases:

1. *Update*: ``x`` gathers an input or an update, advancing its iteration
   to ``max(τ(x), τ(update)+1)``.
2. *Prepare*: once ``x`` is not involved in any producer's update
   (``prepare_list`` empty), it takes a Lamport timestamp and asks every
   consumer for its iteration number (PREPARE).  A consumer acknowledges
   unless its own in-flight update happens *before* ``x``'s, in which case
   the reply is pended until the consumer commits — the Lamport order makes
   the induced waits acyclic (no deadlock, no starvation).
3. *Commit*: with all ACKs in, ``x`` commits at the maximum of its own and
   all consumers' iteration numbers, scatters its new value (UPDATE), and
   answers the PREPAREs it pended.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.core.lamport import LamportClock, Timestamp
from repro.errors import ProtocolError


# ------------------------------------------------------------------ actions
@dataclass(frozen=True, slots=True)
class SendPrepare:
    consumer: Any
    update_time: Timestamp


@dataclass(frozen=True, slots=True)
class SendAck:
    producer: Any
    iteration: int


@dataclass(frozen=True, slots=True)
class CommitUpdate:
    """Commit the vertex's pending change at ``iteration``: the processor
    writes the version and scatters UPDATEs to all consumers."""

    iteration: int


Action = SendPrepare | SendAck | CommitUpdate


class VertexProtocol:
    """Protocol state of one vertex in one loop."""

    __slots__ = ("vertex", "iteration", "update_time", "prepare_list",
                 "waiting_list", "pending_list", "dirty", "commits",
                 "prepares_sent", "gathered_from")

    def __init__(self, vertex: Any, iteration: int = 0) -> None:
        self.vertex = vertex
        self.iteration = iteration
        self.update_time: Timestamp | None = None
        # Producers that PREPAREd and have not committed yet (we are
        # "involved in their updates" and may not start our own).
        self.prepare_list: set[Any] = set()
        # Consumers whose ACK we are waiting for.
        self.waiting_list: set[Any] = set()
        # Producers whose PREPARE we pended until our own commit.
        self.pending_list: list[Any] = []
        # True when gathered changes await a commit.
        self.dirty = False
        self.commits = 0
        self.prepares_sent = 0
        # Highest update iteration gathered per producer.  The processor's
        # stale-update guard reads this for last-wins algebras: the
        # delay-buffer release can reorder a parked update behind a
        # fresher inline-applied one, and replaying the stale offer would
        # clobber the newer slot value.
        self.gathered_from: dict[Any, int] = {}

    # ------------------------------------------------------------ queries
    @property
    def preparing(self) -> bool:
        return self.update_time is not None

    @property
    def blocked(self) -> bool:
        """Dirty but unable to start its update yet."""
        return self.dirty and not self.preparing and bool(self.prepare_list)

    def has_pending_work(self) -> bool:
        return self.dirty or self.preparing

    # ------------------------------------------------------------- events
    def gathered_update(self, producer: Any, iteration: int,
                        changed: bool) -> None:
        """Phase 1 for an UPDATE message: the user gather() already ran;
        ``changed`` says whether it modified the vertex value."""
        if iteration + 1 > self.iteration:
            self.iteration = iteration + 1
        self.prepare_list.discard(producer)
        if changed:
            self.dirty = True

    def gathered_input(self, frontier: int, changed: bool) -> None:
        """Phase 1 for a stream input.  Inputs attach at the loop frontier
        so that terminated iterations never reopen."""
        if frontier > self.iteration:
            self.iteration = frontier
        if changed:
            self.dirty = True

    def try_prepare(self, clock: LamportClock,
                    consumers: Iterable[Any],
                    skip_prepare: bool = False) -> list[Action]:
        """Phase 2: start the update if allowed.  ``skip_prepare`` is the
        delay-bound fast path (paper §4.4): a vertex already at the
        frontier's last admissible iteration commits without the PREPARE
        round, because no consumer can report a larger iteration."""
        if not self.dirty or self.preparing or self.prepare_list:
            return []
        # Sorted fan-out: ``consumers`` is typically the program's target
        # set, whose iteration order varies with hash randomisation — on
        # the live backend each worker is its own interpreter, so an
        # unsorted PREPARE order would differ per process and per run.
        consumer_list = sorted(consumers, key=repr)
        if skip_prepare or not consumer_list:
            return self._commit()
        self.update_time = clock.tick()
        self.waiting_list = set(consumer_list)
        self.prepares_sent += len(consumer_list)
        return [SendPrepare(consumer, self.update_time)
                for consumer in consumer_list]

    def received_prepare(self, producer: Any,
                         update_time: Timestamp) -> list[Action]:
        """A producer announced its update; ack it unless our own update
        happens first in the Lamport order."""
        self.prepare_list.add(producer)
        if self.update_time is None or self.update_time > update_time:
            return [SendAck(producer, self.iteration)]
        self.pending_list.append(producer)
        return []

    def received_ack(self, consumer: Any, iteration: int) -> list[Action]:
        """Phase 3 trigger: collect iteration numbers; commit when all
        consumers have answered."""
        if iteration > self.iteration:
            self.iteration = iteration
        self.waiting_list.discard(consumer)
        if self.preparing and not self.waiting_list:
            return self._commit()
        return []

    def _commit(self) -> list[Action]:
        if not self.dirty:
            raise ProtocolError(f"commit of clean vertex {self.vertex!r}")
        self.update_time = None
        self.dirty = False
        self.commits += 1
        actions: list[Action] = [CommitUpdate(self.iteration)]
        for producer in self.pending_list:
            actions.append(SendAck(producer, self.iteration))
        self.pending_list.clear()
        return actions

