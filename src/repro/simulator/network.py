"""Simulated cluster network.

Messages between actors pay a base latency plus optional jitter, and the
fabric as a whole has a finite message capacity: once senders exceed it,
delivery times queue behind one another, which is what produces the
throughput ceiling in the paper's Figure 9b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from repro.simulator.kernel import Simulator


@dataclass
class LinkStats:
    """Per-(src, dst) traffic accounting, kept only while the flight
    recorder is enabled (per-link cardinality is too high to pay for
    unconditionally)."""

    sent: int = 0
    dropped: int = 0
    bytes: int = 0


@dataclass
class NetworkStats:
    """Aggregate traffic counters plus a per-bucket time series of fabric
    messages used for messages-per-second measurements."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    remote_sent: int = 0
    bucket_width: float = 1.0
    remote_buckets: dict[int, int] = field(default_factory=dict)

    def record_remote(self, time: float) -> None:
        self.remote_sent += 1
        bucket = int(time // self.bucket_width)
        self.remote_buckets[bucket] = self.remote_buckets.get(bucket, 0) + 1

    def peak_remote_messages_per_second(self) -> float:
        """Peak rate over the *fabric* (messages that consume capacity)."""
        if not self.remote_buckets:
            return 0.0
        return max(self.remote_buckets.values()) / self.bucket_width


class Network:
    """Message fabric connecting every actor of a :class:`Simulator`.

    Parameters
    ----------
    latency:
        One-way delivery latency in virtual seconds.
    jitter:
        Uniform jitter added on top of ``latency``.
    capacity:
        Fabric-wide throughput ceiling in messages per virtual second
        (``None`` = infinite).
    local_latency:
        Latency for messages whose source and destination share a node
        (see :meth:`colocate`).
    """

    def __init__(self, sim: Simulator, latency: float = 5e-4,
                 jitter: float = 0.0, capacity: float | None = None,
                 local_latency: float = 5e-5) -> None:
        self.sim = sim
        self.latency = latency
        self.jitter = jitter
        self.capacity = capacity
        self.local_latency = local_latency
        self.stats = NetworkStats()
        self._rng = sim.random.stream("network")
        self._next_free = 0.0
        self._placement: dict[str, str] = {}
        self._blocked: set[tuple[str, str]] = set()
        #: Fabric-wide extra one-way latency (delay spikes stack additively).
        self.extra_latency = 0.0
        #: Per-(src, dst) extra latency on top of the fabric-wide spike.
        self._link_extra: dict[tuple[str, str], float] = {}
        #: Per-link accounting, populated only while tracing is enabled.
        self.link_stats: dict[tuple[str, str], LinkStats] = {}
        #: Optional ``message -> size in bytes`` estimator for per-link
        #: byte accounting (left unset, bytes stay 0: sizing arbitrary
        #: payloads is workload knowledge the fabric does not have).
        self.size_of: Any = None
        #: Record one ``net.send`` event (with delivery eta) per message
        #: while tracing — the communication edges the critical-path
        #: extractor walks.  Off by default: link events change the
        #: trace digest (see ``TornadoConfig.trace_links``).
        self.trace_links = False

    def _link(self, src: str, dst: str) -> LinkStats:
        link = self.link_stats.get((src, dst))
        if link is None:
            link = self.link_stats[(src, dst)] = LinkStats()
        return link

    # ------------------------------------------------------------ placement
    def colocate(self, actor_name: str, node: str) -> None:
        """Pin an actor to a physical node; intra-node messages are cheap
        and do not consume fabric capacity."""
        self._placement[actor_name] = node

    def _is_local(self, src: str, dst: str) -> bool:
        node_src = self._placement.get(src)
        return node_src is not None and node_src == self._placement.get(dst)

    # ----------------------------------------------------------- partitions
    def block(self, src: str, dst: str) -> None:
        """Drop all messages from ``src`` to ``dst`` (network partition)."""
        self._blocked.add((src, dst))
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, "net", "block",
                                  actor=src, dst=dst)

    def unblock(self, src: str, dst: str) -> None:
        self._blocked.discard((src, dst))
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, "net", "unblock",
                                  actor=src, dst=dst)

    # --------------------------------------------------------- delay spikes
    def add_delay(self, extra: float, src: str | None = None,
                  dst: str | None = None) -> None:
        """Start a delay spike: every remote message (or every ``src``
        -> ``dst`` message when both are given) pays ``extra`` additional
        one-way latency until :meth:`remove_delay` undoes it.  Spikes
        stack, so overlapping faults compose additively."""
        if src is not None and dst is not None:
            key = (src, dst)
            self._link_extra[key] = self._link_extra.get(key, 0.0) + extra
        else:
            self.extra_latency += extra
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, "net", "delay_spike",
                                  actor=src or "-", dst=dst or "-",
                                  extra=extra)

    def remove_delay(self, extra: float, src: str | None = None,
                     dst: str | None = None) -> None:
        """End a delay spike previously started with :meth:`add_delay`."""
        if src is not None and dst is not None:
            key = (src, dst)
            remaining = self._link_extra.get(key, 0.0) - extra
            if remaining > 1e-12:
                self._link_extra[key] = remaining
            else:
                self._link_extra.pop(key, None)
        else:
            self.extra_latency = max(0.0, self.extra_latency - extra)
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, "net", "delay_heal",
                                  actor=src or "-", dst=dst or "-",
                                  extra=extra)

    # ------------------------------------------------------------- sending
    def send(self, src: str, dst: str, message: Any) -> None:
        """Deliver ``message`` from actor ``src`` to actor ``dst`` after the
        modelled delay.  Messages to a crashed actor are silently lost, as
        on a real network."""
        now = self.sim.now
        self.stats.sent += 1
        if self.sim.trace.enabled:
            link = self._link(src, dst)
            link.sent += 1
            if self.size_of is not None:
                link.bytes += int(self.size_of(message))
        if (src, dst) in self._blocked:
            self.stats.dropped += 1
            if self.sim.trace.enabled:
                self._link(src, dst).dropped += 1
                self.sim.trace.record(now, "net", "drop", actor=src,
                                      dst=dst, reason="partition")
            return
        if self._is_local(src, dst):
            delay = self.local_latency
        else:
            self.stats.record_remote(now)
            delay = self.latency + self.extra_latency
            if self._link_extra:
                delay += self._link_extra.get((src, dst), 0.0)
            if self.jitter:
                delay += float(self._rng.random()) * self.jitter
            if self.capacity is not None:
                depart = max(now, self._next_free)
                self._next_free = depart + 1.0 / self.capacity
                delay += depart - now
        if not math.isfinite(delay):
            delay = self.latency
        if self.trace_links and self.sim.trace.enabled:
            self.sim.trace.record(now, "net", "send", actor=src, dst=dst,
                                  eta=now + delay)
        # Delivery events are never cancelled, so a same-instant burst
        # coalesces into one heap entry (the kernel expands it in send
        # order; capacity above was still charged per message).
        self.sim.schedule_message(delay, self._deliver, dst, message, src)

    def _deliver(self, dst: str, message: Any, src: str) -> None:
        actor = self.sim.actors.get(dst)
        if actor is None or actor.down:
            self.stats.dropped += 1
            if self.sim.trace.enabled:
                self._link(src, dst).dropped += 1
                self.sim.trace.record(self.sim.now, "net", "drop",
                                      actor=src, dst=dst, reason="down")
            return
        self.stats.delivered += 1
        actor.deliver(message, src)
