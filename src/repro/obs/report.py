"""Reporting over the flight recorder: per-iteration protocol tables.

The Tornado runtime records one ``protocol.*`` event per UPDATE gathered,
PREPARE sent, ACK sent and COMMIT applied (see
:mod:`repro.core.processor`), each stamped with its loop and iteration.
This module folds those events into the per-iteration phase counts that
explain the paper's Fig. 8c/8d behaviour — which phase a loop is stuck in
during an outage — without any external counter.
"""

from __future__ import annotations

from typing import Iterable

from repro.obs.trace import TraceEvent, TraceRecorder

PHASES = ("update", "prepare", "ack", "commit")


def phase_counts(recorder: TraceRecorder | Iterable[TraceEvent],
                 loop: str | None = None
                 ) -> dict[tuple[str, int], dict[str, int]]:
    """Protocol-phase event counts keyed by ``(loop, iteration)``.

    Accepts a live :class:`TraceRecorder` or any iterable of
    :class:`TraceEvent`.  Loop names are only unique *within* one
    recorder's stream, so count one job's events at a time.

    Only events still retained by the ring are counted; under sustained
    load the table therefore describes the *recent* window, which is what
    a flight recorder is for.
    """
    if isinstance(recorder, TraceRecorder):
        events: Iterable[TraceEvent] = recorder.select(category="protocol")
    else:
        events = recorder
    table: dict[tuple[str, int], dict[str, int]] = {}
    for event in events:
        if event.category != "protocol" or event.name not in PHASES:
            continue
        event_loop = event.field("loop")
        if event_loop is not None:
            event_loop = str(event_loop)
        if loop is not None and event_loop != loop:
            continue
        iteration = event.field("iteration")
        if event_loop is None or iteration is None:
            continue
        key = (event_loop, int(iteration))
        row = table.get(key)
        if row is None:
            row = table[key] = {phase: 0 for phase in PHASES}
        row[event.name] += 1
    return dict(sorted(table.items()))


def render_phase_table(recorder: TraceRecorder,
                       loop: str | None = None) -> str:
    """Aligned text table of :func:`phase_counts`."""
    table = phase_counts(recorder, loop)
    header = ["loop", "iteration", "updates", "prepares", "acks",
              "commits"]
    rows = [[key[0], str(key[1])] + [str(row[phase]) for phase in PHASES]
            for key, row in table.items()]
    widths = [max(len(header[i]), *(len(r[i]) for r in rows))
              if rows else len(header[i]) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)),
             "  ".join("-" * w for w in widths)]
    lines.extend("  ".join(cell.ljust(w) for cell, w in zip(row, widths))
                 for row in rows)
    return "\n".join(lines)

