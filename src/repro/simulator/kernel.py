"""The discrete-event simulation kernel.

A :class:`Simulator` owns the virtual clock, the event queue and the actor
registry.  Everything above it — the Tornado runtime, the chaos campaigns,
the baseline engines — advances time exclusively by scheduling events, which
makes every experiment in this repository fully deterministic.

Three mechanisms remove the dominant costs of a pure-heap design without
changing any simulated-time semantics:

* fixed-delay timers (:meth:`Simulator.schedule_timer`) live on a
  :class:`~repro.simulator.timers.TimerWheel` — O(1) schedule and true
  O(1) removal on cancel — and are merged with the heap deterministically
  by popping ``min(heap head, wheel head)`` under ``(time, seq)`` order;
* the heap compacts tombstones left by lazily-cancelled events;
* same-instant messages (:meth:`Simulator.schedule_message`) coalesce
  into one heap entry that the run loop expands unit by unit, in the
  exact order the individual events would have fired.

The regression oracles are a property test against a plain lazy-cancel
heap (``tests/test_property_timerwheel.py``) and a pinned flight-recorder
digest (``tests/test_obs_determinism.py``).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import SimulationError
from repro.obs import MetricsRegistry, TraceRecorder
from repro.simulator.events import Event, EventQueue
from repro.simulator.randomness import RandomStreams
from repro.simulator.timers import Timer, TimerWheel

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulator.actors import Actor

#: Anything `schedule*` returns: cancellable, ordered by ``(time, seq)``.
Scheduled = Event | Timer


def _callback_label(callback: Callable[..., Any]) -> str:
    """Deterministic label for a scheduled callback (never ``repr``, which
    embeds memory addresses)."""
    label = getattr(callback, "__qualname__", None)
    return label if label is not None else type(callback).__name__


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Root seed for all named random streams.
    recorder:
        Flight recorder shared by every layer running on this simulator.
        Defaults to a disabled recorder, so tracing is opt-in and costs
        one boolean check per guarded site when off.
    metrics:
        Shared metrics registry (always on; instruments are cheap).
    """

    def __init__(self, seed: int = 0,
                 recorder: TraceRecorder | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        self._now = 0.0
        # One sequence counter shared by the heap and the wheel puts all
        # scheduled work in a single total (time, seq) order.
        self._seq = itertools.count()
        self._queue = EventQueue(counter=self._seq)
        self._wheel = TimerWheel(counter=self._seq)
        # A partially-dispatched coalesced batch (event, next unit index):
        # the run loop can be interrupted between units by stop() or an
        # event budget, and must resume exactly where it left off.
        self._batch: Event | None = None
        self._batch_index = 0
        self.random = RandomStreams(seed)
        self.actors: dict[str, "Actor"] = {}
        self._events_processed = 0
        self._stopped = False
        self.trace = (recorder if recorder is not None
                      else TraceRecorder(enabled=False))
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    # ------------------------------------------------------------ scheduling
    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> Event:
        """Run ``callback(*args)`` after ``delay`` virtual seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        return self._queue.push(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    *args: Any) -> Event:
        """Run ``callback(*args)`` at absolute virtual ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before now={self._now}")
        return self._queue.push(time, callback, *args)

    def schedule_timer(self, delay: float, callback: Callable[..., Any],
                       *args: Any) -> Scheduled:
        """Like :meth:`schedule`, for recurring fixed-delay timers —
        retransmit timeouts, tick chains, heartbeats.  These live on the
        timer wheel: O(1) to schedule and O(1) *true*
        removal on cancel, instead of a heap tombstone."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        if delay > 0:
            timer = self._wheel.schedule(self._now + delay, delay,
                                         callback, args)
            if timer is not None:
                return timer
            # Spoke monotonicity refused (clock moved backwards, e.g. by
            # run(until=past)); the heap handles any order.
        return self._queue.push(self._now + delay, callback, *args)

    def schedule_message(self, delay: float, callback: Callable[..., Any],
                         *args: Any) -> Scheduled | None:
        """Like :meth:`schedule`, for delivery-style callbacks that are
        never cancelled.  A burst of same-callback sends landing at the
        same instant coalesces into one heap entry (returns ``None`` for
        coalesced sends).  Safe by construction:
        a batch only absorbs a send while it is still the newest entry
        at that instant — on the heap (``tail_event``) *and* on the
        wheel (``has_deadline``) — so expansion order equals the
        (time, seq) order the individual events would have had."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        time = self._now + delay
        tail = self._queue.tail_event(time)
        if (tail is not None and tail.callback == callback
                and not self._wheel.has_deadline(time)):
            self._queue.extend(tail, args)
            return None
        return self._queue.push(time, callback, *args, track=True)

    # --------------------------------------------------------------- actors
    def register(self, actor: "Actor") -> None:
        if actor.name in self.actors:
            raise SimulationError(f"duplicate actor name: {actor.name!r}")
        self.actors[actor.name] = actor

    def actor(self, name: str) -> "Actor":
        try:
            return self.actors[name]
        except KeyError:
            raise SimulationError(f"unknown actor: {name!r}") from None

    # ------------------------------------------------------- event plumbing
    def _next_time(self) -> float | None:
        """Time of the next callback unit across batch, heap and wheel."""
        if self._batch is not None:
            return self._batch.time
        head = self._queue.peek()
        timer = self._wheel.peek()
        if head is None:
            return None if timer is None else timer.time
        if timer is None or (head.time, head.seq) <= (timer.time, timer.seq):
            return head.time
        return timer.time

    def _pop_unit(self) -> tuple[float, Callable[..., Any], tuple] | None:
        """Remove and return the next callback unit as ``(time, callback,
        args)``, resuming a partially-dispatched batch first."""
        batch = self._batch
        if batch is not None:
            args = batch.extra[self._batch_index]
            self._batch_index += 1
            if self._batch_index >= len(batch.extra):
                self._batch = None
            self._queue.consume_unit()
            return batch.time, batch.callback, args
        head = self._queue.peek()
        timer = self._wheel.peek()
        if head is not None and (
                timer is None
                or (head.time, head.seq) <= (timer.time, timer.seq)):
            event = self._queue.pop()
            if event.extra:
                self._batch = event
                self._batch_index = 0
            return event.time, event.callback, event.args
        if timer is None:
            return None
        self._wheel.pop(timer)
        return timer.time, timer.callback, timer.args

    # -------------------------------------------------------------- running
    def stop(self) -> None:
        """Request the current :meth:`run` or :meth:`run_until` call to
        return after the event being processed."""
        self._stopped = True

    def run(self, until: float | None = None,
            max_events: int | None = None) -> float:
        """Process events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired.  Returns the clock value on exit."""
        self._stopped = False
        budget = max_events if max_events is not None else float("inf")
        while not self._stopped and budget > 0:
            next_time = self._next_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self._now = until
                break
            time, callback, args = self._pop_unit()
            self._now = time
            self._events_processed += 1
            budget -= 1
            if self.trace.enabled:
                self.trace.record(self._now, "kernel", "dispatch",
                                  callback=_callback_label(callback),
                                  depth=self.pending_events)
            callback(*args)
        return self._now

    def run_until(self, predicate: Callable[[], bool],
                  max_events: int = 50_000_000) -> float:
        """Process events until ``predicate()`` becomes true (or a
        callback calls :meth:`stop`).

        Raises :class:`SimulationError` if the queue drains or the event
        budget is exhausted first.
        """
        self._stopped = False
        budget = max_events
        while budget > 0:
            if predicate() or self._stopped:
                return self._now
            unit = self._pop_unit()
            if unit is None:
                raise SimulationError(
                    "event queue drained before predicate became true")
            time, callback, args = unit
            self._now = time
            self._events_processed += 1
            budget -= 1
            if self.trace.enabled:
                self.trace.record(self._now, "kernel", "dispatch",
                                  callback=_callback_label(callback),
                                  depth=self.pending_events)
            callback(*args)
        raise SimulationError(f"predicate not reached in {max_events} events")

    @property
    def pending_events(self) -> int:
        """Live scheduled callback units: cancelled tombstones excluded,
        coalesced batch units counted individually."""
        return self._queue.pending + self._wheel.pending
