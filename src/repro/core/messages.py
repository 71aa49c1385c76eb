"""Protocol messages exchanged by Tornado's ingester, processors and master.

Messages are small frozen dataclasses.  The session-layer messages (UPDATE /
PREPARE / ACKNOWLEDGE) implement the three-phase update protocol of paper
§4.2; the control messages implement progress tracking (§4.3), branch-loop
management (§5.2) and recovery (§5.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.lamport import Timestamp

MAIN_LOOP = "main"


def branch_name(branch_id: int) -> str:
    return f"branch-{branch_id}"


# --------------------------------------------------------------- session
@dataclass(frozen=True, slots=True)
class VertexInput:
    """A stream delta routed to one vertex of a loop."""

    loop: str
    vertex: Any
    kind: str
    payload: Any
    weight: int = 1


@dataclass(frozen=True, slots=True)
class VertexUpdate:
    """Commit of ``producer``'s new value, scattered to one consumer."""

    loop: str
    producer: Any
    consumer: Any
    iteration: int
    data: Any


@dataclass(frozen=True, slots=True)
class ColumnBatch:
    """The session frame: one loop's session traffic for one destination
    processor, riding a single reliable envelope (the session window's
    sender-side batching).

    ``segments`` preserves the original send order exactly, so per-link
    protocol ordering (an update may never be overtaken by the next
    round's PREPARE) holds verbatim.  Each segment is either

    * a plain 4-tuple of parallel columns ``(producers, consumers,
      iterations, values)`` — one *run* of consecutive updates.  Every
      column is a plain tuple, and ``values`` holds whatever the program
      scatters, of any type; or
    * a scalar protocol message (:class:`Prepare` or
      :class:`Acknowledge`), left at its original position.

    Receivers discriminate with ``type(segment) is tuple`` (the scalar
    messages are dataclasses) and gather each row exactly as if it had
    arrived as its own :class:`VertexUpdate`.
    """

    loop: str
    segments: tuple[Any, ...]

    def has_prepare(self) -> bool:
        """Does any scalar segment carry a :class:`Prepare`?  (Recovery
        purges frames with unacked prepares.)"""
        return any(isinstance(seg, Prepare) for seg in self.segments)

    def update_producers(self) -> list:
        """Producer ids of every update in the frame (fork-time in-flight
        scans)."""
        producers = []
        for seg in self.segments:
            if type(seg) is tuple:
                producers.extend(seg[0])
        return producers


@dataclass(frozen=True, slots=True)
class ReleasedUpdate:
    """Re-delivery wrapper for an update leaving the delay
    buffer.  The wrapper tells the dispatcher this message was already
    ordered by the buffer (apply it, do not park it again) and carries
    the per-pair bookkeeping that keeps later same-``(producer,
    consumer)`` arrivals from overtaking it while it sits in the inbox."""

    update: VertexUpdate

    @property
    def loop(self) -> str:
        return self.update.loop


@dataclass(frozen=True, slots=True)
class Prepare:
    """Phase 2: ``producer`` announces it is about to update."""

    loop: str
    producer: Any
    consumer: Any
    update_time: Timestamp


@dataclass(frozen=True, slots=True)
class Acknowledge:
    """Reply to a Prepare: the consumer's current iteration number."""

    loop: str
    consumer: Any
    producer: Any
    iteration: int


# --------------------------------------------------------------- control
@dataclass(frozen=True, slots=True)
class ProgressReport:
    """Cumulative per-iteration counters from one processor.

    ``counters`` maps iteration -> (commits, sent, gathered); ``watermark``
    is the lowest iteration at which the processor still has local pending
    work (+inf when idle).  Counters are cumulative so reports are
    idempotent under at-least-once delivery and survive master restarts.
    """

    loop: str
    processor: str
    seq: int
    counters: dict[int, tuple[int, int, int]]
    watermark: float
    inputs_gathered: int = 0
    #: Cumulative busy time of the processor (load monitoring, §5.1).
    busy_time: float = 0.0
    #: Session messages this processor has sent but not yet seen
    #: acknowledged (snapshot taken before the report is enqueued).  Zero
    #: everywhere + idle watermarks + empty delay buffers = quiescence.
    unacked: int = 0
    #: Updates parked by the delay bound on this processor (plus, on the
    #: main loop, gathers buffered for vertices migrating in).
    buffered: int = 0
    #: Top-K ``(vertex, weight)`` gather-volume pairs since the last
    #: report — the migration planner's per-vertex cost signal (§5.1).
    vertex_load: tuple = ()
    #: ``(sent, received)`` payload frames per channel, taken with the
    #: rest of this report: ``((dst, n), …)`` put on each open channel
    #: out, ``((src, n), …)`` taken from each one in.  None where the
    #: fabric keeps no counts (the simulator) or frames were still
    #: unhandled when the report was taken.
    channels: tuple | None = None


@dataclass(frozen=True, slots=True)
class IterationTerminated:
    """Master -> processors: every iteration ≤ ``iteration`` of ``loop``
    has terminated; the delay-bound frontier advances."""

    loop: str
    iteration: int


@dataclass(frozen=True, slots=True)
class ForkBranch:
    """Master -> processors: fork a branch loop from the main loop."""

    loop: str
    fork_iteration: int
    previous_fork_iteration: int
    full_activation: bool = False


@dataclass(frozen=True, slots=True)
class StopLoop:
    """Master -> processors: tear a converged/abandoned branch loop down."""

    loop: str


@dataclass(frozen=True, slots=True)
class MergeBranch:
    """Master -> processors: write a converged branch's values back into
    the main loop at ``target_iteration`` (= τ + B, paper §5.2)."""

    loop: str
    target_iteration: int


@dataclass(frozen=True, slots=True)
class QueryRequest:
    """Ingester -> master: a user asked for results at this instant."""

    query_id: int
    issued_at: float
    full_activation: bool = False


@dataclass(frozen=True, slots=True)
class QueryRejected:
    """Master -> ingester: the query was shed (no capacity for another
    branch loop and shedding is the configured admission policy)."""

    query_id: int
    issued_at: float
    reason: str


@dataclass(frozen=True, slots=True)
class BranchDone:
    """Master -> ingester/driver: a branch converged; results readable."""

    loop: str
    query_id: int
    converged_iteration: int
    issued_at: float


@dataclass(frozen=True, slots=True)
class Repartition:
    """Master -> processors: the partition scheme changed at ``epoch``;
    hand the moved vertices over (their state travels through the shared
    store).  ``moves`` is ``((vertex, source, target), ...)``; receivers
    fence notices whose epoch is older than one they already applied."""

    epoch: int
    moves: tuple[tuple[Any, str, str], ...]


@dataclass(frozen=True, slots=True)
class MigrateState:
    """Source -> target processor: the listed vertices of the main loop
    are released — their freshest versioned state is in the shared store;
    ``vertices`` is ``((vertex, active), ...)`` where ``active`` means the
    vertex still had dirty/pending work and must be re-activated."""

    epoch: int
    vertices: tuple[tuple[Any, bool], ...]


@dataclass(frozen=True, slots=True)
class MigrateDone:
    """Target processor -> master: the listed vertices were adopted and
    their buffered in-flight gathers replayed; the move is complete."""

    epoch: int
    vertices: tuple[Any, ...]


@dataclass(frozen=True, slots=True)
class ProcessorRecovered:
    """Processor -> master: I restarted and lost in-memory state."""

    processor: str


@dataclass(frozen=True, slots=True)
class PeerRecovered:
    """Master -> other processors: ``processor`` restarted and lost its
    session state.  Producers mid-prepare must re-send their PREPAREs to
    consumers it owns — the session-level replies they were waiting for
    died with it (the transport-level ack already happened, so no
    transport retransmission will occur)."""

    processor: str


@dataclass(frozen=True, slots=True)
class RecoverLoops:
    """Master -> recovering processor: the loops to rebuild, with the last
    terminated iteration of each (the checkpoint to reload)."""

    loops: tuple[tuple[str, int], ...]


# ------------------------------------------------------------- transport
@dataclass(frozen=True, slots=True)
class Envelope:
    """Reliable-transport wrapper: at-least-once with receiver dedup.
    ``ack`` is the id of one envelope the sender received from the
    destination and has not acknowledged yet (0 = none): an ack rides
    the traffic going back."""

    msg_id: int
    payload: Any
    ack: int = 0


@dataclass(frozen=True, slots=True)
class TransportAck:
    msg_id: int
