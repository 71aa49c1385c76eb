"""SnailTrail-style critical-path extraction over flight-recorder traces.

Per-phase event counts (:mod:`repro.obs.report`) say what the runtime
*did*; they do not say what end-to-end latency *waited on*.  Following
the SnailTrail line of work (PAPERS.md), this module reconstructs, for
every terminated iteration of a loop, the transient critical path: the
single backward chain of activities — protocol phases on processors,
message hops between them — that had to finish for the iteration to
terminate when it did.  Time on that chain is time that directly bounds
iteration latency; time off it is slack.

The activity graph comes straight from the recorded events:

* every event is a node on its actor's timeline (the interval between
  two consecutive events on one actor is the activity *ending at* the
  later event, labelled with that event's ``category.name``);
* every ``net.send`` event (recorded by the fabric when
  ``TornadoConfig.trace_links`` is on) is a communication edge from the
  sender at send time to the receiver at the delivery ``eta``.

For each window ``(T_{k-1}, T_k]`` between consecutive
``progress.terminated`` anchors, the extractor walks backward from the
anchor, at each step following the *latest* dependency — the youngest
preceding event on the current actor, or the youngest message delivery
into it, whichever finished last — and emits the traversed intervals as
:class:`PathSegment` records.  The walk is a pure function of the trace
(ties break on sequence numbers), so same seed ⇒ same path, and the
per-window weight can never exceed the window span by construction.

Transient paths aggregate into criticality scores: the fraction of total
critical-path time spent in each phase (:meth:`CriticalPathReport.
phase_scores`), on each inter-processor link (:meth:`~CriticalPathReport.
link_scores` — which network hops dominate) and on each actor
(:meth:`~CriticalPathReport.processor_scores` — which processor the
path waits on).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable

from repro.obs.trace import TraceEvent, TraceRecorder

MAIN_LOOP = "main"


@dataclass(frozen=True)
class PathSegment:
    """One interval of the critical path.

    ``kind`` is ``"phase"`` (activity on ``actor`` ending in an event
    labelled ``label``) or ``"link"`` (a message in flight; ``label`` is
    ``"src->dst"`` and ``actor`` the receiving end).
    """

    kind: str
    label: str
    actor: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class WindowPath:
    """The transient critical path of one terminated iteration."""

    iteration: int
    start: float
    end: float
    segments: tuple[PathSegment, ...]

    @property
    def span(self) -> float:
        """Wall (virtual) length of the iteration window."""
        return self.end - self.start

    @property
    def weight(self) -> float:
        """Total critical-path time extracted — ≤ :attr:`span` always."""
        return sum(segment.duration for segment in self.segments)


@dataclass
class CriticalPathReport:
    """Aggregated transient critical paths of one loop."""

    loop: str
    windows: list[WindowPath] = field(default_factory=list)

    @property
    def total_weight(self) -> float:
        return sum(window.weight for window in self.windows)

    def _scores(self, want_kind: str,
                key_of) -> dict:
        total = self.total_weight
        if total <= 0:
            return {}
        tally: dict = {}
        for window in self.windows:
            for segment in window.segments:
                if segment.kind != want_kind:
                    continue
                key = key_of(segment)
                tally[key] = tally.get(key, 0.0) + segment.duration
        return {key: duration / total
                for key, duration in sorted(tally.items(),
                                            key=lambda kv: str(kv[0]))}

    def phase_scores(self) -> dict[str, float]:
        """Fraction of critical-path time per activity label
        (``category.name`` of the event each interval ends at)."""
        return self._scores("phase", lambda seg: seg.label)

    def link_scores(self) -> dict[tuple[str, str], float]:
        """Fraction of critical-path time in flight per ``(src, dst)``
        link."""
        return self._scores("link",
                            lambda seg: tuple(seg.label.split("->", 1)))

    def processor_scores(self) -> dict[str, float]:
        """Fraction of critical-path time on each actor (link time is
        the wire's, attributed to no actor)."""
        return self._scores("phase", lambda seg: seg.actor)

    def to_json(self) -> str:
        """Deterministic JSON encoding of the scores and window stats
        (the CI shape-check surface)."""
        payload = {
            "loop": self.loop,
            "windows": [{"iteration": w.iteration, "start": w.start,
                         "end": w.end, "span": w.span,
                         "weight": w.weight,
                         "segments": len(w.segments)}
                        for w in self.windows],
            "phase_scores": self.phase_scores(),
            "processor_scores": self.processor_scores(),
            "link_scores": {f"{src}->{dst}": score for (src, dst), score
                            in self.link_scores().items()},
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    def render(self) -> str:
        """Aligned text summary: per-window weights, then the phase and
        link criticality rankings."""
        lines = [f"critical path: loop={self.loop}, "
                 f"{len(self.windows)} window(s), "
                 f"total weight {self.total_weight:.6f}s"]
        for window in self.windows:
            coverage = (window.weight / window.span * 100.0
                        if window.span > 0 else 0.0)
            lines.append(f"  iter {window.iteration:>4}: span "
                         f"{window.span:.6f}s, path {window.weight:.6f}s "
                         f"({coverage:.0f}%), "
                         f"{len(window.segments)} segment(s)")
        phases = self.phase_scores()
        if phases:
            lines.append("phase criticality:")
            for label in sorted(phases, key=lambda k: (-phases[k], k)):
                lines.append(f"  {phases[label]:6.1%}  {label}")
        links = self.link_scores()
        if links:
            lines.append("link criticality:")
            for link in sorted(links, key=lambda k: (-links[k], k)):
                lines.append(f"  {links[link]:6.1%}  "
                             f"{link[0]}->{link[1]}")
        return "\n".join(lines)


class _Timeline:
    """Bisect-able per-actor event index keyed by ``(time, seq)``."""

    def __init__(self) -> None:
        self.keys: list[tuple[float, int]] = []
        self.events: list[TraceEvent] = []

    def add(self, key: tuple[float, int], event: TraceEvent) -> None:
        self.keys.append(key)
        self.events.append(event)

    def sort(self) -> None:
        order = sorted(range(len(self.keys)),
                       key=lambda i: self.keys[i])
        self.keys = [self.keys[i] for i in order]
        self.events = [self.events[i] for i in order]

    def latest_before(self, key: tuple[float, int]
                      ) -> tuple[TraceEvent, tuple[float, int]] | None:
        """Youngest entry with key strictly below ``key``."""
        index = bisect_left(self.keys, key) - 1
        if index < 0:
            return None
        return self.events[index], self.keys[index]


def extract_critical_path(events: TraceRecorder | Iterable[TraceEvent],
                          loop: str = MAIN_LOOP,
                          max_windows: int | None = None
                          ) -> CriticalPathReport:
    """Extract per-iteration transient critical paths for ``loop``.

    ``events`` is a :class:`~repro.obs.trace.TraceRecorder` or any
    iterable of :class:`~repro.obs.trace.TraceEvent`.  Communication
    edges require the trace to contain ``net.send`` events — run the job with
    ``TornadoConfig(trace_enabled=True, trace_links=True)``; without
    them the path never leaves the anchor's actor.
    """
    ordered = list(events)
    anchors: list[TraceEvent] = []
    locals_of: dict[str, _Timeline] = {}
    inbound_of: dict[str, _Timeline] = {}
    for event in ordered:
        actor = event.actor or "-"
        locals_of.setdefault(actor, _Timeline()).add(
            (event.time, event.seq), event)
        if event.category == "net" and event.name == "send":
            dst = str(event.field("dst"))
            eta = float(event.field("eta", event.time))
            inbound_of.setdefault(dst, _Timeline()).add(
                (eta, event.seq), event)
        elif (event.category == "progress"
                and event.name == "terminated"
                and str(event.field("loop")) == loop):
            anchors.append(event)
    for timeline in locals_of.values():
        timeline.sort()
    for timeline in inbound_of.values():
        timeline.sort()

    report = CriticalPathReport(loop=loop)
    if max_windows is not None:
        anchors = anchors[-max_windows:]
    # One backward step per event is the worst case for a single walk;
    # the cap only guards against a malformed trace (eta <= send time).
    step_cap = 2 * len(ordered) + 16
    previous_end = None
    for anchor in anchors:
        window_start = (previous_end if previous_end is not None
                        else min(event.time for event in ordered))
        previous_end = anchor.time
        segments = _walk_window(anchor, window_start, locals_of,
                                inbound_of, step_cap)
        report.windows.append(WindowPath(
            iteration=int(anchor.field("iteration")),
            start=window_start, end=anchor.time,
            segments=tuple(segments)))
    return report


def _phase_label(event: TraceEvent) -> str:
    return f"{event.category}.{event.name}"


def _walk_window(anchor: TraceEvent, window_start: float,
                 locals_of: dict[str, _Timeline],
                 inbound_of: dict[str, _Timeline],
                 step_cap: int) -> list[PathSegment]:
    """Backward walk from ``anchor`` to ``window_start``; see module
    docstring for the dependency rule."""
    segments: list[PathSegment] = []
    cursor = anchor
    cursor_actor = anchor.actor or "-"
    cursor_key = (anchor.time, anchor.seq)
    for _ in range(step_cap):
        if cursor.time <= window_start:
            break
        local_hit = locals_of[cursor_actor].latest_before(cursor_key)
        inbound = inbound_of.get(cursor_actor)
        comm_hit = (inbound.latest_before(cursor_key)
                    if inbound is not None else None)
        if local_hit is None and comm_hit is None:
            # Trace begins mid-activity (ring eviction): attribute the
            # uncovered head of the window to the activity we are in.
            _emit(segments, "phase", _phase_label(cursor), cursor_actor,
                  window_start, cursor.time)
            break
        comm_key = comm_hit[1] if comm_hit is not None else None
        local_key = local_hit[1] if local_hit is not None else None
        if comm_key is not None and (local_key is None
                                     or comm_key > local_key):
            send, (eta, _seq) = comm_hit
            # Processing on the receiver since the delivery landed...
            _emit(segments, "phase", _phase_label(cursor), cursor_actor,
                  max(eta, window_start), cursor.time)
            if eta <= window_start:
                break
            # ...and the hop itself, back to the sender at send time.
            src = send.actor or "-"
            _emit(segments, "link", f"{src}->{cursor_actor}",
                  cursor_actor, max(send.time, window_start), eta)
            if send.time <= window_start:
                break
            cursor, cursor_actor = send, src
            cursor_key = (send.time, send.seq)
        else:
            previous, previous_key = local_hit
            _emit(segments, "phase", _phase_label(cursor), cursor_actor,
                  max(previous.time, window_start), cursor.time)
            if previous.time <= window_start:
                break
            cursor, cursor_key = previous, previous_key
    return segments


def _emit(segments: list[PathSegment], kind: str, label: str, actor: str,
          start: float, end: float) -> None:
    """Append an interval, merging zero-length ones away and coalescing
    adjacent segments of the same kind/label/actor."""
    if end <= start:
        return
    if segments:
        last = segments[-1]
        if (last.kind == kind and last.label == label
                and last.actor == actor and last.start == end):
            segments[-1] = PathSegment(kind, label, actor, start,
                                       last.end)
            return
    segments.append(PathSegment(kind, label, actor, start, end))
