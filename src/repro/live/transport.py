"""Live network fabric and reliable transport.

The reliable at-least-once layer is :class:`ReliableEndpoint` itself —
unchanged.  It only needs a kernel with ``schedule_timer`` (retransmit
timeouts become wall-clock timeouts on the :class:`LiveKernel`) and a
network with ``send(src, dst, message)``.  The two fabric classes here
supply the latter over multiprocessing queues:

* :class:`WorkerNet` (in each worker process) delivers self-addressed
  messages locally and puts everything else on the worker's outbound
  queue as a :class:`~repro.live.wire.Wire`;
* :class:`MasterNet` (in the master process) delivers to the master and
  ingester actors locally and routes worker-bound wires into the
  per-worker inbound queues.  All worker↔worker traffic therefore hops
  through the master's pump — a star topology, which keeps every link a
  single-producer FIFO (the per-link ordering the protocol relies on)
  and gives the master one place to fence dead incarnations.

Neither side polls its queue: the master blocks on all workers'
outbound pipes at once (``LiveJob._wait``), a worker on its inbound
queue until the next timer is due (``worker_main``).  The queues keep
their feeder threads, so a ``put`` never blocks either pump.

:class:`LiveTransport` adds one thing to :class:`ReliableEndpoint`:
message-id namespacing by incarnation.  A respawned worker is a *new
process* whose id counter restarts at zero, while its peers' dedup
windows still remember the old incarnation's ids — without the offset,
the fresh messages would be dropped as duplicates.  (The simulator never
hits this: a recovered actor keeps its endpoint object, and
``clear()`` deliberately does not reset ``_next_id``.)
"""

from __future__ import annotations

from typing import Any

from repro.core.transport import ReliableEndpoint
from repro.live.kernel import LiveKernel
from repro.live.wire import Wire

#: Message-id namespace width per incarnation (2**32 ids each).
INCARNATION_STRIDE = 1 << 32


class WorkerNet:
    """Fabric seen from inside one worker process."""

    def __init__(self, kernel: LiveKernel, owner: str, outbound: Any) -> None:
        self.kernel = kernel
        self.owner = owner
        self.outbound = outbound
        self.sent = 0
        self.sent_local = 0
        #: Frames put on the outbound queue (wires + control frames).
        self.frames_out = 0

    def send(self, src: str, dst: str, message: Any) -> None:
        self.sent += 1
        actor = self.kernel.actors.get(dst)
        if actor is not None:
            # Self-owned consumer (or any co-hosted actor): deliver
            # through the kernel, exactly like the simulated network's
            # local path — no pickling, no queue hop.
            self.sent_local += 1
            actor.deliver(message, src)
            return
        self.frames_out += 1
        self.outbound.put(Wire(src, dst, self.kernel.tick(), message))

    def send_control(self, frame: Any) -> None:
        """Put a control frame (StoreWrite, FetchStore, FinalReport …) on
        the outbound queue, outside the actor-message path."""
        self.frames_out += 1
        self.outbound.put(frame)


class MasterNet:
    """Fabric seen from the master process; also the star router."""

    def __init__(self, kernel: LiveKernel, links: dict[str, Any]) -> None:
        self.kernel = kernel
        #: name -> worker link (``.queue_in``, ``.alive``); owned and
        #: mutated by the LiveJob driver as workers die and respawn.
        self.links = links
        self.sent = 0
        self.dropped = 0

    def send(self, src: str, dst: str, message: Any) -> None:
        self.sent += 1
        actor = self.kernel.actors.get(dst)
        if actor is not None:
            actor.deliver(message, src)
            return
        self.forward(Wire(src, dst, self.kernel.tick(), message))

    def forward(self, wire: Wire) -> None:
        """Route a wire to its destination worker.  Messages to a dead
        worker are dropped — the moral equivalent of the simulated
        network's down-actor drop; retransmit timers recover them."""
        link = self.links.get(wire.dst)
        if link is None or not link.alive:
            self.dropped += 1
            return
        link.queue_in.put(wire)


class LiveTransport(ReliableEndpoint):
    """ReliableEndpoint with incarnation-namespaced message ids."""

    def __init__(self, kernel: LiveKernel, net: Any, owner: str,
                 timeout: float = 0.5, incarnation: int = 0) -> None:
        super().__init__(kernel, net, owner, timeout=timeout)
        self.incarnation = incarnation
        self._next_id = incarnation * INCARNATION_STRIDE
