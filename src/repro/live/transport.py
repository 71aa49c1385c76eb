"""Live network fabric and reliable transport.

The reliable at-least-once layer is :class:`ReliableEndpoint` itself —
unchanged.  It only needs a kernel with ``schedule_timer`` (retransmit
timeouts become wall-clock timeouts on the :class:`LiveKernel`) and a
network with ``send(src, dst, message)``.  The two fabric classes here
supply the latter over multiprocessing queues, in the paper's topology:
processors message each other, the master carries control.

* :class:`WorkerNet` (in each worker process) delivers self-addressed
  messages locally, puts a peer-bound :class:`~repro.live.wire.Wire` on
  the direct queue to that peer, and everything else (reports, acks to
  the ingester, control frames) on the worker's queue to the master.  It
  also is the worker's intake: :meth:`WorkerNet.take_batch` drains the
  master queue and every peer queue and blocks on all of them at once.
* :class:`MasterNet` (in the master process) delivers to the master and
  ingester actors locally and puts worker-bound wires on that worker's
  master queue.

Every queue has one producer and one consumer, so every link is FIFO
(the per-link ordering the protocol relies on) and a SIGKILL mid-``put``
can only corrupt queues that touch the dead worker.  The direct queues
exist from before the first spawn and cannot be handed to a process
later, so a respawned incarnation has none: its peers drop theirs on
``PeerDown`` and traffic to and from it goes worker → master →
:meth:`MasterNet.forward` → worker.  That relay is the recovery path and
nothing else.

Both ends of every channel count the *payload frames* they put on it or
take from it (:func:`is_payload`); every progress report carries the
worker's counts (:meth:`WorkerNet.counts`) and ``LiveJob.quiescent``
matches them (see there for why that needs no waiting).  The counts live
here, in the fabric, and not in :class:`ReliableEndpoint`: a frame
:meth:`MasterNet.forward` drops for a dead link, or one still queued to a
peer when :meth:`WorkerNet.drop_peer` closes the queue, never reaches a
receiver — an endpoint-level count would include it and never settle.

Nobody polls: the master blocks on all workers' outbound pipes at once
(``LiveJob._wait``), a worker on all its inbound pipes until the next
timer is due.  The queues keep their feeder threads, so a ``put`` never
blocks either loop.

:class:`LiveTransport` adds one thing to :class:`ReliableEndpoint`:
message-id namespacing by incarnation.  A respawned worker is a *new
process* whose id counter restarts at zero, while its peers' dedup
windows still remember the old incarnation's ids — without the offset,
the fresh messages would be dropped as duplicates.  (The simulator never
hits this: a recovered actor keeps its endpoint object, and
``clear()`` deliberately does not reset ``_next_id``.)
"""

from __future__ import annotations

import queue
from collections import deque
from multiprocessing.connection import wait as wait_any
from typing import Any

from repro.core.messages import TransportAck
from repro.core.progress import MASTER_CHANNEL
from repro.core.transport import ReliableEndpoint
from repro.live.kernel import LiveKernel
from repro.live.wire import Wire

#: Message-id namespace width per incarnation (2**32 ids each).
INCARNATION_STRIDE = 1 << 32
#: Frames taken from one inbound queue per intake batch.
INTAKE_SLICE = 256


def is_payload(wire: Wire) -> bool:
    """Whether ``wire`` counts toward its channel's totals: everything
    but a bare transport ack.  An ack starts nothing at its receiver — it
    clears an outbox entry and cancels a timer, which can only make the
    receiver *more* passive — so an ack in flight cannot invalidate a
    convergence decision, and not counting it spares a report per
    acknowledged message.  An ack riding an envelope (``Envelope.ack``)
    rides a payload frame, which counts as any other."""
    return type(wire.payload) is not TransportAck


class WorkerNet:
    """Fabric seen from inside one worker process: the queue pair to the
    master and, for a first incarnation, one queue to and one from every
    peer."""

    def __init__(self, kernel: LiveKernel, owner: str, outbound: Any,
                 inbound: Any = None, peers_in: dict[str, Any] | None = None,
                 peers_out: dict[str, Any] | None = None) -> None:
        self.kernel = kernel
        self.owner = owner
        self.outbound = outbound
        self.inbound = inbound
        self.peers_in = dict(peers_in or {})
        self.peers_out = dict(peers_out or {})
        for channel in self.peers_out.values():
            # A peer may be gone (or never read again) by the time this
            # process exits; what is still buffered for it must not keep
            # the exit waiting on the feeder thread.
            channel.cancel_join_thread()
        #: Frames set aside during hydration, delivered first afterwards.
        self.stash: deque = deque()
        #: Payload frames put on each open direct channel.
        self.sent = dict.fromkeys(self.peers_out, 0)
        #: Payload frames taken from each open inbound channel.
        self.received = dict.fromkeys((MASTER_CHANNEL, *self.peers_in), 0)
        #: Frames put on the queue to the master (wires + control frames).
        self.frames_out = 0

    # ------------------------------------------------------------- sending
    def send(self, src: str, dst: str, message: Any) -> None:
        actor = self.kernel.actors.get(dst)
        if actor is not None:
            # Self-owned consumer (or any co-hosted actor): deliver
            # through the kernel, exactly like the simulated network's
            # local path — no pickling, no queue hop.
            actor.deliver(message, src)
            return
        wire = Wire(src, dst, self.kernel.tick(), message)
        direct = self.peers_out.get(dst)
        if direct is None:
            self.frames_out += 1
            self.outbound.put(wire)
            return
        if is_payload(wire):
            self.sent[dst] += 1
        direct.put(wire)

    def send_control(self, frame: Any) -> None:
        """Put a control frame (StoreWrite, FetchStore, FinalReport …) on
        the queue to the master, outside the actor-message path."""
        self.frames_out += 1
        self.outbound.put(frame)

    # -------------------------------------------------------------- intake
    def take_batch(self, timeout: float | None = None) -> list[Any]:
        """Every frame at hand, per source in arrival order: stashed
        frames, then the master queue, then each peer queue (at most
        :data:`INTAKE_SLICE` from a queue).  With a ``timeout`` and
        nothing stashed the call first blocks that long for *any* queue
        to have a frame.  Control frames come from the master only and
        end the batch, so Collect and Shutdown see the loop state they
        saw when frames came one a turn."""
        batch: list[Any] = []
        while self.stash:
            if self._admit(self.stash.popleft(), MASTER_CHANNEL, batch):
                return batch
        if timeout is not None and not batch:
            if self.peers_in:
                wait_any([channel._reader for channel
                          in (self.inbound, *self.peers_in.values())],
                         timeout)
            else:
                # The master queue alone: a plain blocking ``get``.
                try:
                    first = self.inbound.get(timeout=timeout)
                except queue.Empty:
                    return batch
                if self._admit(first, MASTER_CHANNEL, batch):
                    return batch
        if self._drain(self.inbound, MASTER_CHANNEL, batch):
            return batch
        for name, channel in self.peers_in.items():
            self._drain(channel, name, batch)
        return batch

    def _drain(self, source: Any, channel: str, batch: list) -> bool:
        """Move what ``source`` holds into the batch; True when a control
        frame ended it."""
        for _ in range(INTAKE_SLICE):
            try:
                item = source.get_nowait()
            except queue.Empty:
                return False
            if self._admit(item, channel, batch):
                return True
        return False

    def _admit(self, item: Any, channel: str, batch: list) -> bool:
        """Append ``item`` to the batch, counting it on ``channel`` if it
        is a payload frame; True when it is a control frame."""
        batch.append(item)
        if not isinstance(item, Wire):
            return True
        if is_payload(item):
            self.received[channel] += 1
        return False

    def drop_peer(self, name: str) -> None:
        """``name``'s process is gone (PeerDown): close both direct
        queues to it and stop counting them.  Frames still in them are
        lost with the incarnation they belonged to — the live analogue of
        the simulated network's down-actor drop; the reliable transport
        retransmits what is unacknowledged, from now on through the
        master."""
        for channels in (self.peers_in, self.peers_out):
            channel = channels.pop(name, None)
            if channel is not None:
                channel.close()
        self.sent.pop(name, None)
        self.received.pop(name, None)

    def counts(self) -> tuple:
        """``(sent, received)`` per open channel, as a progress report
        carries them (``ProgressReport.channels``)."""
        return tuple(self.sent.items()), tuple(self.received.items())


class MasterNet:
    """Fabric seen from the master process; also the recovery relay."""

    def __init__(self, kernel: LiveKernel, links: dict[str, Any]) -> None:
        self.kernel = kernel
        #: name -> worker link (``.queue_in``, ``.alive``); owned and
        #: mutated by the LiveJob driver as workers die and respawn.
        self.links = links
        #: Payload frames put on each worker's master queue (the driver
        #: zeroes an entry when it spawns that worker's next incarnation).
        self.sent: dict[str, int] = {}
        self.dropped = 0

    def send(self, src: str, dst: str, message: Any) -> None:
        actor = self.kernel.actors.get(dst)
        if actor is not None:
            actor.deliver(message, src)
            return
        self.forward(Wire(src, dst, self.kernel.tick(), message))

    def forward(self, wire: Wire) -> None:
        """Put a wire on its destination worker's master queue: the
        master's and ingester's own sends, and — the relay — a worker's
        wire for a peer it has no direct queue to.  Messages to a dead
        worker are dropped, the moral equivalent of the simulated
        network's down-actor drop; retransmit timers recover them."""
        link = self.links.get(wire.dst)
        if link is None or not link.alive:
            self.dropped += 1
            return
        if is_payload(wire):
            self.sent[wire.dst] = self.sent.get(wire.dst, 0) + 1
        link.queue_in.put(wire)


class LiveTransport(ReliableEndpoint):
    """ReliableEndpoint with incarnation-namespaced message ids."""

    def __init__(self, kernel: LiveKernel, net: Any, owner: str,
                 timeout: float = 0.5, incarnation: int = 0) -> None:
        super().__init__(kernel, net, owner, timeout=timeout)
        self.incarnation = incarnation
        self._next_id = incarnation * INCARNATION_STRIDE
