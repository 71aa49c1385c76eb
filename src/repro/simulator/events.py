"""Event queue for the discrete-event simulator.

Events are ordered by (time, sequence number) so that two events scheduled
for the same instant fire in the order they were scheduled.  Cancellation
is lazy: a cancelled event stays in the heap but is skipped when popped.
Two fast-path mechanisms keep lazy cancellation from dominating the run
(both enabled by the ``fast_path`` flag, off for the legacy kernel used
as an A/B baseline):

* **Tombstone compaction** — when more than half of the heap entries are
  cancelled (and the heap is non-trivial), the heap is rebuilt without
  them in one O(n) pass, so high-churn cancel-heavy loads cannot inflate
  every subsequent O(log n) operation.
* **Same-instant coalescing** — message-style pushes (``track=True``)
  register as the *tail entry for their instant* (``tail_event``), and a
  burst of them landing at the same time with the same callback can be
  folded into one heap entry carrying extra argument tuples
  (``extend``).  Any untracked push at the same instant revokes the
  candidate, so a batch only grows while it is still the newest entry at
  its instant — the kernel then expands it unit by unit in append order,
  which is exactly the (time, seq) order the individual events would
  have had.  Keeping the tail map message-only (plus the ``_tailed``
  flag) keeps plain schedule/pop traffic off the dict entirely.

Independent of the flag, the queue maintains an accurate :attr:`pending`
count of live callback units — cancelled tombstones excluded, coalesced
batch units included — which is what the kernel reports as queue depth.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Iterator

from repro.errors import SimulationError

#: Minimum heap size before compaction is considered; rebuilding tiny
#: heaps costs more than the tombstones do.
COMPACT_MIN_SIZE = 64


class Event:
    """A scheduled callback.  Returned by :meth:`EventQueue.push` so the
    caller can cancel it later."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled",
                 "extra", "_queue", "_in_heap", "_tailed")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: Extra argument tuples of callbacks coalesced into this event
        #: (same callback, same instant), dispatched in append order.
        self.extra: list[tuple] | None = None
        self._queue: "EventQueue | None" = None
        self._in_heap = False
        # True while this event may be registered in the queue's
        # time -> tail map; lets pop/cancel skip the dict entirely for
        # the vast majority of events that never were.
        self._tailed = False

    def cancel(self) -> None:
        """Mark the event so it will be skipped when its time comes."""
        if not self.cancelled:
            self.cancelled = True
            if self._queue is not None:
                self._queue._on_cancel(self)

    @property
    def units(self) -> int:
        """Number of callback invocations this entry represents."""
        return 1 if self.extra is None else 1 + len(self.extra)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, seq={self.seq}, {state})"


class EventQueue:
    """A priority queue of :class:`Event` objects.

    Heap entries are ``(time, seq, event)`` tuples, so ``heapq`` orders
    them with C tuple comparisons; ``seq`` is unique, so the comparison
    never reaches the event itself.

    Parameters
    ----------
    fast_path:
        Enable tombstone compaction and the coalescing bookkeeping.
        ``False`` reproduces the pre-fast-path behaviour (pure lazy
        cancellation), which the perf harness uses as its baseline.
    counter:
        Optional shared sequence-number source (the kernel passes one
        shared with its :class:`~repro.simulator.timers.TimerWheel`).
    """

    def __init__(self, fast_path: bool = True,
                 counter: Iterator[int] | None = None) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = counter if counter is not None else itertools.count()
        self.fast_path = fast_path
        self._pending = 0
        self._cancelled = 0
        # time -> last event pushed at that time (coalescing support).
        self._tail: dict[float, Event] = {}

    def __len__(self) -> int:
        """Raw heap entries, tombstones included (batches count once)."""
        return len(self._heap)

    @property
    def pending(self) -> int:
        """Live callback units: tombstones excluded, batch units
        included."""
        return self._pending

    @property
    def tombstones(self) -> int:
        """Cancelled entries still occupying heap slots."""
        return self._cancelled

    # ------------------------------------------------------------ scheduling
    def push(self, time: float, callback: Callable[..., Any],
             *args: Any, track: bool = False) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time``.  With
        ``track`` the event is registered as the tail entry for its
        instant (a coalescing candidate, see :meth:`tail_event`); any
        push *without* it revokes a pending candidate at the same
        instant, so a batch can never absorb a send across an
        interleaved event."""
        if time != time:  # NaN guard
            raise SimulationError("event time is NaN")
        seq = next(self._counter)
        event = Event(time, seq, callback, args)
        event._queue = self
        event._in_heap = True
        heapq.heappush(self._heap, (time, seq, event))
        if track:
            self._tail[time] = event
            event._tailed = True
        elif self._tail:
            self._tail.pop(time, None)
        self._pending += 1
        return event

    def tail_event(self, time: float) -> Event | None:
        """The most recent live tracked event pushed at exactly ``time``,
        if no later push at that time displaced it.  Coalescing into it
        cannot reorder anything: every pending same-instant entry has a
        smaller sequence number."""
        event = self._tail.get(time)
        if event is None or event.cancelled:
            return None
        return event

    def extend(self, event: Event, args: tuple) -> None:
        """Coalesce one more ``event.callback(*args)`` invocation into an
        existing entry (the caller must have vetted it via
        :meth:`tail_event`)."""
        if event.extra is None:
            event.extra = [args]
        else:
            event.extra.append(args)
        self._pending += 1

    def consume_unit(self) -> None:
        """Account for one batch unit the kernel dispatched from an
        already-popped event."""
        self._pending -= 1

    # ------------------------------------------------------------- removal
    def pop(self) -> Event | None:
        """Remove and return the next non-cancelled event, or ``None`` if
        the queue is exhausted."""
        while self._heap:
            event = heapq.heappop(self._heap)[2]
            event._in_heap = False
            if event.cancelled:
                self._cancelled -= 1
                continue
            if event._tailed and self._tail.get(event.time) is event:
                del self._tail[event.time]
            self._pending -= 1
            return event
        return None

    def peek(self) -> Event | None:
        """Next pending event without removing it (purges cancelled
        entries from the top)."""
        while self._heap:
            head = self._heap[0][2]
            if not head.cancelled:
                return head
            heapq.heappop(self._heap)
            head._in_heap = False
            self._cancelled -= 1
        return None

    def peek_time(self) -> float | None:
        """Time of the next pending event without removing it."""
        head = self.peek()
        return None if head is None else head.time

    # -------------------------------------------------------- cancellation
    def _on_cancel(self, event: Event) -> None:
        if not event._in_heap:
            return
        self._pending -= event.units
        self._cancelled += 1
        if event._tailed and self._tail.get(event.time) is event:
            del self._tail[event.time]
        if self.fast_path:
            if (self._cancelled * 2 > len(self._heap)
                    and len(self._heap) >= COMPACT_MIN_SIZE):
                self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without tombstones: O(n) once, instead of the
        cancelled majority taxing every later O(log n) operation."""
        live = []
        for entry in self._heap:
            event = entry[2]
            if event.cancelled:
                event._in_heap = False
            else:
                live.append(entry)
        heapq.heapify(live)
        self._heap = live
        self._cancelled = 0

    def clear(self) -> None:
        for _time, _seq, event in self._heap:
            event._in_heap = False
        self._heap.clear()
        self._tail.clear()
        self._pending = 0
        self._cancelled = 0
