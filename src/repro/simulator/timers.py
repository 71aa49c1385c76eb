"""Timer wheel for high-churn fixed-delay timers.

The dominant event class in every workload is a timer that is scheduled
and then almost always cancelled before it fires: reliable-transport
retransmits (cancelled by the ack) and self-rescheduling tick chains.
On the binary heap each of those costs O(log n) to schedule and leaves a
tombstone behind on cancel that inflates every later heap operation.

This module takes them off the heap.  A classic hierarchical
timer wheel quantises deadlines to tick buckets, which would change
simulated-time semantics — firing times here are exact floats and must
stay exact.  The structural trick that survives without quantisation:
the simulator clock never goes backwards, so all timers of one fixed
delay ``d`` are created in non-decreasing deadline order.  The wheel is
therefore organised as one *spoke* per distinct delay value, each spoke
an intrusive doubly-linked FIFO whose head is its earliest deadline:

* schedule — append to the spoke's tail: O(1);
* cancel — unlink the node: O(1), true removal, no tombstone;
* peek — min over spoke heads by ``(time, seq)``: O(#spokes), and the
  number of distinct fixed delays in a deployment is a small constant
  (retransmit timeout, tuple timeout, report/tick intervals, ...).

Sequence numbers are drawn from the same counter as heap events, so the
kernel can merge the wheel and the heap deterministically:
``next = min(heap head, wheel head)`` under ``(time, seq)`` order — the
exact order the heap-only kernel produces.

A spoke refuses (returns ``None``) a deadline earlier than its tail,
which can only happen if the clock was moved backwards; the kernel then
falls back to the heap so correctness never depends on monotonicity.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterator


class Timer:
    """A scheduled wheel timer.  Same contract as
    :class:`repro.simulator.events.Event`: compare by ``(time, seq)``,
    cancel via :meth:`cancel` — but cancellation truly unlinks the node
    instead of leaving a tombstone."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled",
                 "_spoke", "_prev", "_next")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._spoke: "_Spoke | None" = None
        self._prev: "Timer | None" = None
        self._next: "Timer | None" = None

    def cancel(self) -> None:
        """Remove the timer from its wheel.  O(1); safe to call after the
        timer has fired (then a no-op)."""
        self.cancelled = True
        spoke = self._spoke
        if spoke is not None:
            spoke.wheel._unlink(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Timer(t={self.time:.6f}, seq={self.seq}, {state})"


class _Spoke:
    """One delay class: an intrusive doubly-linked FIFO of timers with
    non-decreasing deadlines."""

    __slots__ = ("wheel", "delay", "head", "tail", "count")

    def __init__(self, wheel: "TimerWheel", delay: float):
        self.wheel = wheel
        self.delay = delay
        self.head: Timer | None = None
        self.tail: Timer | None = None
        self.count = 0


class TimerWheel:
    """Fixed-delay timer store merged with the event heap by the kernel.

    Parameters
    ----------
    counter:
        Sequence-number source shared with the :class:`EventQueue`, so
        heap events and wheel timers live in one total ``(time, seq)``
        order.
    """

    def __init__(self, counter: Iterator[int] | None = None) -> None:
        self._counter = counter if counter is not None else itertools.count()
        self._spokes: dict[float, _Spoke] = {}
        self._pending = 0
        # Pending timers per exact deadline.  Lets the coalescing path ask
        # in O(1) whether appending to a same-instant batch could overtake
        # a timer due at exactly that instant (see Simulator.schedule_message).
        self._deadlines: dict[float, int] = {}
        # Cached earliest timer: the kernel peeks the wheel on *every*
        # dispatched event, so the O(#spokes) scan runs only after the
        # cached head was unlinked (fired or cancelled), not per event.
        self._head: Timer | None = None
        self._head_dirty = False

    # ------------------------------------------------------------ scheduling
    def schedule(self, time: float, delay: float,
                 callback: Callable[..., Any], args: tuple) -> Timer | None:
        """Schedule ``callback(*args)`` at absolute ``time`` on the spoke
        for ``delay``.  Returns ``None`` (caller must fall back to the
        heap) if ``time`` would break the spoke's deadline monotonicity —
        only possible when the clock has been moved backwards."""
        spoke = self._spokes.get(delay)
        if spoke is None:
            spoke = self._spokes[delay] = _Spoke(self, delay)
        elif spoke.tail is not None and time < spoke.tail.time:
            return None
        timer = Timer(time, next(self._counter), callback, args)
        timer._spoke = spoke
        timer._prev = spoke.tail
        if spoke.tail is None:
            spoke.head = timer
        else:
            spoke.tail._next = timer
        spoke.tail = timer
        spoke.count += 1
        self._pending += 1
        self._deadlines[time] = self._deadlines.get(time, 0) + 1
        if not self._head_dirty:
            head = self._head
            # Sequence numbers only grow, so the new timer displaces the
            # cached head only when strictly earlier.
            if head is None or time < head.time:
                self._head = timer
        return timer

    def _unlink(self, timer: Timer) -> None:
        spoke = timer._spoke
        if spoke is None:
            return
        prev, nxt = timer._prev, timer._next
        if prev is None:
            spoke.head = nxt
        else:
            prev._next = nxt
        if nxt is None:
            spoke.tail = prev
        else:
            nxt._prev = prev
        timer._spoke = timer._prev = timer._next = None
        spoke.count -= 1
        self._pending -= 1
        if timer is self._head:
            self._head = None
            self._head_dirty = True
        remaining = self._deadlines[timer.time] - 1
        if remaining:
            self._deadlines[timer.time] = remaining
        else:
            del self._deadlines[timer.time]

    # --------------------------------------------------------------- queries
    def peek(self) -> Timer | None:
        """Earliest pending timer by ``(time, seq)``, or ``None``.
        O(1) from the cache; O(#spokes) only right after the previous
        head was unlinked."""
        if self._head_dirty:
            best: Timer | None = None
            for spoke in self._spokes.values():
                head = spoke.head
                if head is not None and (
                        best is None
                        or (head.time, head.seq) < (best.time, best.seq)):
                    best = head
            self._head = best
            self._head_dirty = False
        return self._head

    def pop(self, timer: Timer) -> None:
        """Remove a timer the kernel is about to dispatch (normally the
        one :meth:`peek` just returned)."""
        self._unlink(timer)

    def has_deadline(self, time: float) -> bool:
        """Is any pending timer due at exactly ``time``?"""
        return time in self._deadlines

    @property
    def pending(self) -> int:
        return self._pending

    def __len__(self) -> int:
        return self._pending

    @property
    def delays(self) -> tuple[float, ...]:
        """Registered delay classes (spokes), for introspection."""
        return tuple(self._spokes)

    def clear(self) -> None:
        for spoke in self._spokes.values():
            node = spoke.head
            while node is not None:
                nxt = node._next
                node._spoke = node._prev = node._next = None
                node = nxt
        self._spokes.clear()
        self._deadlines.clear()
        self._pending = 0
        self._head = None
        self._head_dirty = False
