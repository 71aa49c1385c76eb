"""A Simulator facade for real-time execution.

The Tornado runtime (``Actor``, ``Processor``, ``ReliableEndpoint``) only
asks four things of its kernel: schedule work, schedule timers, read a
clock, and reach the shared trace/metrics/random sinks.
:class:`LiveKernel` satisfies that interface without a virtual-time event
queue:

* :meth:`schedule` appends to a ready FIFO — the ``delay`` argument is a
  virtual-time *cost* in the simulator and has no wall-clock meaning
  here, so ready work runs as fast as the host allows;
* :meth:`schedule_timer` arms a wall-clock deadline (``time.monotonic``)
  — retransmit timeouts and report ticks become real timeouts;
* :meth:`schedule_at` parks the callback on a virtual-timestamp heap;
  the driver releases parked work when the process is otherwise idle
  (stream feeds "fast-forward" instead of waiting out virtual time);
* :attr:`now` is a Lamport counter merged across processes by the wire
  stamps (:meth:`tick` on send, :meth:`observe` on receipt), so trace
  events carry a causally consistent virtual order — never wall time.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import deque
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import SimulationError
from repro.obs import MetricsRegistry, TraceRecorder
from repro.simulator.randomness import RandomStreams

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulator.actors import Actor


class _Handle:
    """Cancellable scheduled-work handle (the live analogue of the
    simulator's ``Event``/``Timer``)."""

    __slots__ = ("callback", "args", "cancelled")

    def __init__(self, callback: Callable[..., Any], args: tuple) -> None:
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class LiveKernel:
    """Drop-in kernel for actors running under real time."""

    def __init__(self, seed: int = 0,
                 recorder: TraceRecorder | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        self._counter = 0
        self._ready: deque[_Handle] = deque()
        self._timers: list[tuple[float, int, _Handle]] = []
        self._parked: list[tuple[float, int, _Handle]] = []
        self._seq = itertools.count()
        self.actors: dict[str, "Actor"] = {}
        self.random = RandomStreams(seed)
        self.trace = (recorder if recorder is not None
                      else TraceRecorder(enabled=False))
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._events_processed = 0

    # ----------------------------------------------------------- the clock
    @property
    def now(self) -> float:
        """Lamport counter as a float — a causal virtual clock, not wall
        time.  Trace events and protocol bookkeeping stamp with this."""
        return float(self._counter)

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def tick(self) -> int:
        """Advance the clock for a send; returns the wire stamp."""
        self._counter += 1
        return self._counter

    def observe(self, stamp: int) -> None:
        """Merge a received wire stamp (Lamport max-merge + step)."""
        if stamp > self._counter:
            self._counter = stamp
        self._counter += 1

    # ----------------------------------------------------------- scheduling
    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> _Handle:
        """Run ``callback`` as soon as possible; ``delay`` is a virtual
        cost and is deliberately ignored."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        handle = _Handle(callback, args)
        self._ready.append(handle)
        return handle

    def schedule_message(self, delay: float, callback: Callable[..., Any],
                         *args: Any) -> _Handle:
        return self.schedule(delay, callback, *args)

    def schedule_timer(self, delay: float, callback: Callable[..., Any],
                       *args: Any) -> _Handle:
        """Arm a *wall-clock* timeout: virtual seconds map 1:1 to real
        seconds for timers (retransmits, report ticks)."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        handle = _Handle(callback, args)
        heapq.heappush(self._timers,
                       (time.monotonic() + delay, next(self._seq), handle))
        return handle

    def schedule_at(self, when: float, callback: Callable[..., Any],
                    *args: Any) -> _Handle:
        """Park work stamped with a virtual timestamp (stream feeds).  The
        driver releases parked work in timestamp order when idle."""
        handle = _Handle(callback, args)
        heapq.heappush(self._parked, (when, next(self._seq), handle))
        return handle

    # -------------------------------------------------------------- actors
    def register(self, actor: "Actor") -> None:
        if actor.name in self.actors:
            raise SimulationError(f"duplicate actor name: {actor.name!r}")
        self.actors[actor.name] = actor

    def actor(self, name: str) -> "Actor":
        try:
            return self.actors[name]
        except KeyError:
            raise SimulationError(f"unknown actor: {name!r}") from None

    # ------------------------------------------------------------- running
    def run_ready(self, limit: int | None = None) -> int:
        """Drain the ready FIFO (bounded by ``limit`` so callers can
        interleave queue polls); returns callbacks run."""
        done = 0
        while self._ready:
            handle = self._ready.popleft()
            if handle.cancelled:
                continue
            self._counter += 1
            self._events_processed += 1
            handle.callback(*handle.args)
            done += 1
            if limit is not None and done >= limit:
                break
        return done

    def fire_due_timers(self) -> int:
        """Run every timer whose wall-clock deadline has passed."""
        done = 0
        now = time.monotonic()
        while self._timers and self._timers[0][0] <= now:
            _deadline, _seq, handle = heapq.heappop(self._timers)
            if handle.cancelled:
                continue
            self._counter += 1
            self._events_processed += 1
            handle.callback(*handle.args)
            done += 1
        return done

    def next_timer_delay(self) -> float | None:
        """Seconds until the earliest live timer (None if no timers)."""
        while self._timers and self._timers[0][2].cancelled:
            heapq.heappop(self._timers)
        if not self._timers:
            return None
        return max(0.0, self._timers[0][0] - time.monotonic())

    def release_parked(self) -> int:
        """Fast-forward: move all parked work to the ready FIFO in
        timestamp order.  Called by the driver once the system is idle —
        there is no virtual clock to wait out."""
        released = 0
        while self._parked:
            _when, _seq, handle = heapq.heappop(self._parked)
            if handle.cancelled:
                continue
            self._ready.append(handle)
            released += 1
        return released

    @property
    def ready_count(self) -> int:
        return len(self._ready)

    @property
    def parked_count(self) -> int:
        return sum(1 for _w, _s, handle in self._parked
                   if not handle.cancelled)

    @property
    def pending_events(self) -> int:
        return (len(self._ready) + len(self._timers)
                + len(self._parked))
