"""The flight recorder: a deterministic, bounded trace of runtime events.

A :class:`TraceRecorder` is a typed ring buffer of :class:`TraceEvent`
records stamped with *virtual* time.  Because the simulator is
deterministic, the recorder is too: two runs with the same seed produce
byte-for-byte identical dumps, which makes the trace double as a
regression oracle for the protocol (compare :meth:`TraceRecorder.digest`
across runs).

Design constraints:

* **Zero cost when disabled.**  Hot paths guard every call with
  ``if trace.enabled:`` — a single attribute load and branch — so a job
  run with tracing off pays nothing beyond that check.
* **Bounded memory.**  The buffer is a ring: once ``capacity`` events are
  held, the oldest is evicted (and counted in :attr:`TraceRecorder.evicted`)
  so sustained runs cannot exhaust memory.
* **Determinism.**  Events carry only virtual time, a recorder-local
  sequence number and plain values; nothing derived from object identity,
  wall clock or hash randomisation ever enters an event.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from typing import Any, Callable, Iterator


def _fmt(value: Any) -> str:
    """Canonical, deterministic text form of a field value."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


class TraceEvent:
    """One recorded occurrence.

    ``fields`` is a tuple of ``(key, value)`` pairs sorted by key, so the
    textual form of an event never depends on keyword-argument order.
    """

    __slots__ = ("time", "seq", "category", "name", "actor", "fields")

    def __init__(self, time: float, seq: int, category: str, name: str,
                 actor: str, fields: tuple[tuple[str, Any], ...]):
        self.time = time
        self.seq = seq
        self.category = category
        self.name = name
        self.actor = actor
        self.fields = fields

    def field(self, key: str, default: Any = None) -> Any:
        for k, v in self.fields:
            if k == key:
                return v
        return default

    def line(self) -> str:
        """Canonical single-line text form (what :meth:`TraceRecorder.dump`
        emits)."""
        parts = [f"{self.seq:08d}", _fmt(self.time),
                 f"{self.category}.{self.name}", self.actor or "-"]
        parts.extend(f"{k}={_fmt(v)}" for k, v in self.fields)
        return " ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceEvent({self.line()})"


class TraceRecorder:
    """Bounded ring buffer of :class:`TraceEvent` records.

    Parameters
    ----------
    capacity:
        Maximum number of events retained; older events are evicted.
    enabled:
        Initial state of the recording guard.  Call sites must check
        :attr:`enabled` before doing any work to build an event.
    """

    def __init__(self, capacity: int = 65536, enabled: bool = True) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.enabled = enabled
        self._ring: deque[TraceEvent] = deque(maxlen=capacity)
        self._seq = 0
        self.evicted = 0
        self.recorded = 0

    # ------------------------------------------------------------ recording
    def record(self, time: float, category: str, name: str,
               actor: str = "", **fields: Any) -> None:
        """Append one event.  No-op when disabled (but prefer guarding the
        call site with ``if recorder.enabled:`` so argument construction is
        skipped too)."""
        if not self.enabled:
            return
        if len(self._ring) == self.capacity:
            self.evicted += 1
        event = TraceEvent(time, self._seq, category, name, actor,
                           tuple(sorted(fields.items())))
        self._seq += 1
        self.recorded += 1
        self._ring.append(event)

    def clear(self) -> None:
        self._ring.clear()
        self._seq = 0
        self.evicted = 0
        self.recorded = 0

    # -------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._ring)

    @property
    def events(self) -> list[TraceEvent]:
        return list(self._ring)

    def select(self, category: str | None = None,
               name: str | None = None,
               predicate: Callable[[TraceEvent], bool] | None = None
               ) -> list[TraceEvent]:
        """Events matching the given category/name/predicate filters."""
        out = []
        for event in self._ring:
            if category is not None and event.category != category:
                continue
            if name is not None and event.name != name:
                continue
            if predicate is not None and not predicate(event):
                continue
            out.append(event)
        return out

    def counts(self) -> dict[str, int]:
        """Event counts keyed by ``category.name`` (sorted)."""
        tally: dict[str, int] = {}
        for event in self._ring:
            key = f"{event.category}.{event.name}"
            tally[key] = tally.get(key, 0) + 1
        return dict(sorted(tally.items()))

    def phase_counts(self, categories: tuple[str, ...] = ("protocol",)
                     ) -> dict[str, int]:
        """Per-loop protocol-phase totals keyed ``category.name:loop`` —
        the flight-recorder side of the live-vs-sim cross-check.  Only
        category, name and the ``loop`` field enter the key: timestamps,
        sequence numbers and actors are excluded deliberately, because
        the live backend's arrival interleaving (and its Lamport-derived
        clock) is racy while the per-phase totals are not."""
        tally: dict[str, int] = {}
        for event in self._ring:
            if event.category not in categories:
                continue
            loop = event.field("loop")
            key = f"{event.category}.{event.name}"
            if loop is not None:
                key = f"{key}:{loop}"
            tally[key] = tally.get(key, 0) + 1
        return dict(sorted(tally.items()))

    # ---------------------------------------------------------------- dumps
    def dump(self) -> str:
        """Canonical text dump: one line per retained event.  Two runs with
        the same seed produce byte-identical dumps."""
        return "\n".join(event.line() for event in self._ring)

    def digest(self) -> str:
        """SHA-256 over :meth:`dump` — a compact determinism fingerprint."""
        return hashlib.sha256(self.dump().encode("utf-8")).hexdigest()

    def to_chrome_trace(self) -> list[dict[str, Any]]:
        """Events in Chrome ``trace_event`` format (load via
        ``chrome://tracing`` or https://ui.perfetto.dev).  Each actor maps
        to one thread of one process; every event is an instant."""
        actors = sorted({event.actor or "-" for event in self._ring})
        tids = {actor: index for index, actor in enumerate(actors)}
        out: list[dict[str, Any]] = [
            {"ph": "M", "pid": 0, "tid": tid, "name": "thread_name",
             "args": {"name": actor}}
            for actor, tid in sorted(tids.items(), key=lambda kv: kv[1])]
        # Ring order is record order, which the live backend's
        # Lamport-derived clock does not keep monotone; tracing UIs
        # require non-decreasing timestamps, so sort explicitly (seq
        # breaks ties deterministically).
        for event in sorted(self._ring,
                            key=lambda event: (event.time, event.seq)):
            out.append({
                "ph": "i",
                "s": "t",
                "pid": 0,
                "tid": tids[event.actor or "-"],
                # Virtual seconds -> microseconds, the unit tracing UIs use.
                "ts": event.time * 1e6,
                "cat": event.category,
                "name": f"{event.category}.{event.name}",
                "args": dict(event.fields),
            })
        return out

    def chrome_trace_json(self) -> str:
        """Deterministic JSON encoding of :meth:`to_chrome_trace`."""
        return json.dumps({"traceEvents": self.to_chrome_trace()},
                          sort_keys=True, separators=(",", ":"),
                          default=str)

