"""Reliable at-least-once transport (paper §5.3).

Storm's own acking cannot track Tornado's cyclic, amplifying tuple trees,
so Tornado tracks message passing itself: every session/control message is
wrapped in an :class:`Envelope`, the receiver acknowledges it, and
unacknowledged messages are retransmitted after a timeout.  Receivers
de-duplicate by ``(sender, msg_id)``; duplicates that slip through a
receiver restart are rendered harmless by the causality of the iteration
model and the idempotence of ``gather``.

Acks ride the traffic.  Receiving an envelope records the ack owed to its
sender; the first envelope the owner sends back to that sender carries it
(``Envelope.ack``), and the owner's handler ends with one
:meth:`ReliableEndpoint.flush_acks` call that sends a bare
:class:`TransportAck` for every ack no envelope carried.  Either way the
ack leaves at the end of the handler call that processed the message, so
an empty outbox still means delivered *and* processed.  An envelope that
carried an ack and is lost takes the ack with it; the original is then
retransmitted, deduplicated and acknowledged again.

Progress reports do not pass through here: a report is state, not an
event (``Processor._send_reports``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # annotation-only; the runtime never touches numpy
    import numpy as np

from repro.core.messages import Envelope, TransportAck
from repro.simulator import Network, Simulator

#: Per-sender dedup window; old entries are evicted FIFO.
DEDUP_WINDOW = 65536


class TransportChaos:
    """Message-level fault plane shared by a job's reliable endpoints.

    While :attr:`active`, each reliable transmission may be *dropped*
    (the wire send is suppressed — the retransmit timer is still armed,
    so at-least-once delivery self-heals) or *duplicated* (sent twice —
    the receiver's ``(sender, msg_id)`` dedup must absorb the copy).
    Draws come from one seeded stream, so a chaos run is deterministic
    in (seed, schedule); endpoints without a plane installed never draw.
    """

    def __init__(self, rng: np.random.Generator, drop_rate: float = 0.0,
                 dup_rate: float = 0.0) -> None:
        if not 0.0 <= drop_rate + dup_rate <= 1.0:
            raise ValueError("drop_rate + dup_rate must be within [0, 1]")
        self.rng = rng
        self.drop_rate = drop_rate
        self.dup_rate = dup_rate
        self.active = False
        self.dropped = 0
        self.duplicated = 0

    def enable(self) -> None:
        self.active = True

    def disable(self) -> None:
        self.active = False

    def verdict(self) -> str:
        """One deterministic draw: ``"drop"``, ``"dup"`` or ``"pass"``."""
        if not self.active:
            return "pass"
        roll = float(self.rng.random())
        if roll < self.drop_rate:
            self.dropped += 1
            return "drop"
        if roll < self.drop_rate + self.dup_rate:
            self.duplicated += 1
            return "dup"
        return "pass"


class ReliableEndpoint:
    """Transport state owned by one actor."""

    def __init__(self, sim: Simulator, network: Network, owner: str,
                 timeout: float = 0.5) -> None:
        self.sim = sim
        self.network = network
        self.owner = owner
        self.timeout = timeout
        #: Optional shared fault plane (see :class:`TransportChaos`).
        self.chaos: TransportChaos | None = None
        self._next_id = 0
        self._outbox: dict[int, tuple[str, Any]] = {}
        self._timers: dict[int, Any] = {}
        self._tags: dict[int, str] = {}
        #: Outstanding (sent, unacknowledged) messages per tag — used by
        #: the quiescence detector to see per-loop in-flight traffic.
        self.pending_by_tag: dict[str, int] = {}
        self._seen: dict[str, OrderedDict[int, None]] = {}
        #: ``(sender, msg_id)`` of every envelope received in the current
        #: handler call and not acknowledged yet, in arrival order.
        self._owed: list[tuple[str, int]] = []
        self.retransmissions = 0

    # ------------------------------------------------------------- sending
    def send(self, dst: str, payload: Any, tag: str | None = None) -> None:
        """Send with retransmission until acknowledged; an optional
        ``tag`` groups the message into :attr:`pending_by_tag`.  The
        envelope carries the first ack owed to ``dst``, if any."""
        self._next_id += 1
        msg_id = self._next_id
        self._outbox[msg_id] = (dst, payload)
        if tag is not None:
            self._tags[msg_id] = tag
            self.pending_by_tag[tag] = self.pending_by_tag.get(tag, 0) + 1
        ack = 0
        owed = self._owed
        if owed:
            for index, (sender, owed_id) in enumerate(owed):
                if sender == dst:
                    ack = owed_id
                    del owed[index]
                    break
        self._transmit(dst, Envelope(msg_id, payload, ack))
        # Retransmit timers are almost always cancelled by the ack, so
        # they live on the timer wheel: O(1) schedule, true removal.
        self._timers[msg_id] = self.sim.schedule_timer(
            self.timeout, self._retransmit, msg_id)

    def _transmit(self, dst: str, envelope: Envelope) -> None:
        """Put one envelope on the wire, subject to the chaos plane: a
        dropped transmission is recovered by the retransmit timer, a
        duplicated one by the receiver's dedup window."""
        if self.chaos is not None:
            verdict = self.chaos.verdict()
            if verdict == "drop":
                if self.sim.trace.enabled:
                    self.sim.trace.record(self.sim.now, "chaos",
                                          "drop", actor=self.owner,
                                          dst=dst, msg=envelope.msg_id)
                return
            if verdict == "dup":
                if self.sim.trace.enabled:
                    self.sim.trace.record(self.sim.now, "chaos",
                                          "dup", actor=self.owner,
                                          dst=dst, msg=envelope.msg_id)
                self.network.send(self.owner, dst, envelope)
        self.network.send(self.owner, dst, envelope)

    def _retransmit(self, msg_id: int) -> None:
        entry = self._outbox.get(msg_id)
        if entry is None:
            return
        dst, payload = entry
        self.retransmissions += 1
        self._transmit(dst, Envelope(msg_id, payload))
        self._timers[msg_id] = self.sim.schedule_timer(
            self.timeout, self._retransmit, msg_id)

    # ----------------------------------------------------------- receiving
    def on_message(self, message: Any, sender: str) -> Any:
        """Unwrap a transport-level message.

        Returns the application payload to process, or ``None`` when the
        message was transport housekeeping or a duplicate.  An envelope,
        duplicate or not, is owed an ack (see :meth:`flush_acks`); the
        ack it carries is settled first.
        """
        if isinstance(message, Envelope):
            if message.ack:
                self._settle(message.ack)
            self._owed.append((sender, message.msg_id))
            seen = self._seen.setdefault(sender, OrderedDict())
            if message.msg_id in seen:
                return None
            seen[message.msg_id] = None
            while len(seen) > DEDUP_WINDOW:
                seen.popitem(last=False)
            return message.payload
        if isinstance(message, TransportAck):
            self._settle(message.msg_id)
            return None
        return message

    def flush_acks(self) -> None:
        """Send a bare ack for every ack owed that no envelope carried.
        The owner calls this once, at the end of each handler call: the
        ack leaves at the virtual instant of the handling, after the
        handler's own sends."""
        owed = self._owed
        if owed:
            send = self.network.send
            for dst, msg_id in owed:
                send(self.owner, dst, TransportAck(msg_id))
            owed.clear()

    def purge_unacked(self, dst: str, kinds: tuple[type, ...] = (),
                      predicate: Any = None) -> int:
        """Stop retransmitting unacknowledged messages addressed to
        ``dst`` that match the payload ``kinds`` (or an arbitrary
        ``predicate``, for container payloads such as session batches).
        Used when ``dst`` restarts: its dedup window died with it, so a
        pre-crash envelope would be re-delivered as *fresh* — and a
        stale PREPARE landing after its producer committed wedges the
        consumer forever (nothing ever clears the ghost ``prepare_list``
        entry).  The recovery protocol re-sends every still-live PREPARE
        explicitly."""
        purged = 0
        for msg_id, (dest, payload) in list(self._outbox.items()):
            if dest != dst:
                continue
            if not (isinstance(payload, kinds) if kinds
                    else predicate is not None and predicate(payload)):
                continue
            self._settle(msg_id)
            purged += 1
        return purged

    def _settle(self, msg_id: int) -> None:
        """Forget one message: no outbox entry, timer or tag count left."""
        self._outbox.pop(msg_id, None)
        timer = self._timers.pop(msg_id, None)
        if timer is not None:
            timer.cancel()
        tag = self._tags.pop(msg_id, None)
        if tag is not None:
            remaining = self.pending_by_tag.get(tag, 0) - 1
            if remaining > 0:
                self.pending_by_tag[tag] = remaining
            else:
                # Drop the key outright: long runs cycle through many
                # tags (one per branch loop) and keeping zero entries
                # grows the dict unboundedly.
                self.pending_by_tag.pop(tag, None)

    # ------------------------------------------------------------ lifecycle
    def clear(self) -> None:
        """Drop all transport state (crash semantics)."""
        self._outbox.clear()
        self._seen.clear()
        self._owed.clear()
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()
        self._tags.clear()
        self.pending_by_tag.clear()

    @property
    def unacked(self) -> int:
        return len(self._outbox)

    def unacked_payloads(self) -> list[Any]:
        """Payloads still awaiting acknowledgement (in flight)."""
        return [payload for _dst, payload in self._outbox.values()]
