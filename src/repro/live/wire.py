"""Cross-process message envelopes and control frames.

Everything that crosses a process boundary is a frozen dataclass built
from plain data — the pickle round-trip test over the full message
vocabulary (``tests/test_messages_pickle.py``) keeps it that way.  Two
families travel on the queues:

* :class:`Wire` wraps one actor-bound protocol message from
  ``core/messages.py`` (usually a transport ``Envelope`` or
  ``TransportAck``, or a bare ``ProgressReport``) with its source,
  destination and the sender's Lamport
  stamp; the receiver merges the stamp into its own clock, which yields
  the virtual ordering the flight recorder stamps events with.  A
  session envelope's payload is usually a ``ColumnBatch`` — session
  updates as column runs of plain tuples.
  A wire travels on the direct queue between its two workers, or on a
  worker's master queue when one end lives in the master process (or,
  after a respawn, when the direct queue died with the old incarnation).
* Control frames (:class:`StoreWrite`, :class:`FetchStore`,
  :class:`StoreLoad`, :class:`PeerDown`, :class:`Collect`,
  :class:`FinalReport`, :class:`Shutdown`, :class:`WorkerError`) only
  ever travel between a worker and the master
  and are handled by the master pump or the worker loop directly, outside
  the actor inbox — they are the live backend's replacements for what the
  simulator could simply read from shared memory (the store, the
  manifest, final state, and whether a message is still in the network).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True, slots=True)
class Wire:
    """One protocol message in flight between processes."""

    src: str
    dst: str
    #: Sender's Lamport counter at send time (merged on receipt).
    stamp: int
    payload: Any


@dataclass(frozen=True, slots=True)
class StoreWrite:
    """Write-behind checkpoint shipping: the journal of versions a worker
    flushed, bound for the master's authoritative store.  Rides the same
    FIFO queue as the progress reports that follow it, so by the time the
    master processes a report, the versions it covers have landed — the
    paper's flush-before-report invariant, end to end."""

    processor: str
    seq: int
    #: ``(loop, key, iteration, value)`` tuples.
    entries: tuple
    #: ``(loop, iteration)`` durable frontiers as of this flush.
    frontiers: tuple


@dataclass(frozen=True, slots=True)
class FetchStore:
    """A respawned worker asks the master for its checkpoint state."""

    processor: str


@dataclass(frozen=True, slots=True)
class StoreLoad:
    """Master → worker: full version dump re-seeding a respawned worker's
    local store (``(loop, key, iteration, value)`` tuples)."""

    entries: tuple


@dataclass(frozen=True, slots=True)
class PeerDown:
    """Master → every surviving worker when ``processor``'s process was
    killed: drop both direct queues to that name.  Traffic to and from
    its next incarnation takes the master queues (the relay)."""

    processor: str


@dataclass(frozen=True, slots=True)
class Collect:
    """Finalize barrier: asks a worker to drain its ready queue and reply
    with a :class:`FinalReport`."""


@dataclass(frozen=True, slots=True)
class FinalReport:
    """A worker's end-of-run summary: final in-memory main-loop values,
    per-loop protocol totals and flight-recorder phase counts."""

    processor: str
    incarnation: int
    #: Sorted ``(vertex_id, snapshot_value)`` pairs of the main loop.
    main_values: tuple
    #: Sorted ``(loop, (commits, sent, gathered, prepares, inputs))``.
    loop_totals: tuple
    #: Sorted ``(phase_key, count)`` pairs from the worker's recorder.
    trace_counts: tuple
    events_processed: int
    retransmissions: int
    trace_evicted: int
    # Worker-loop counters (see ``repro.live.worker.LoopStats``), whole
    # life of the incarnation.
    #: Non-empty intake batches, and the frames they held.
    intake_batches: int = 0
    frames_in: int = 0
    #: Frames put on the queue to the master (wires and control frames).
    frames_out: int = 0
    #: Flush-and-report rounds by what triggered them: the report tick,
    #: the actor inbox draining, the worker about to block on changed
    #: evidence.
    reports_tick: int = 0
    reports_idle: int = 0
    reports_quiet_edge: int = 0
    #: Wall seconds blocked on the inbound queues.
    blocked_s: float = 0.0
    #: Payload frames per open channel as in ``ProgressReport.channels``:
    #: ``(dst, frames)`` put on direct channels, ``(src, frames)`` taken
    #: (``"master"`` = the master queue).
    channel_sent: tuple = ()
    channel_received: tuple = ()


@dataclass(frozen=True, slots=True)
class Shutdown:
    """Orderly worker exit."""


@dataclass(frozen=True, slots=True)
class WorkerError:
    """A worker's main loop raised; ``error`` carries the traceback text.
    The master pump re-raises on receipt."""

    processor: str
    incarnation: int
    error: str


@dataclass(frozen=True, slots=True)
class WorkerSpec:
    """Everything a spawned worker needs to build its runtime (must be
    picklable: the spawn start method re-imports and unpickles it)."""

    name: str
    incarnation: int
    app: Any
    config: Any
    worker_names: tuple
    recovering: bool
