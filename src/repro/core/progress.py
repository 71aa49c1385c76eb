"""Progress tracking and iteration-termination detection (paper §4.3).

The master aggregates cumulative per-iteration counters from every
processor.  Iteration ``k`` of a loop *terminates* once

* every iteration before it has terminated,
* some work actually happened at or after ``k`` (idle iterations beyond the
  last activity are not terminated — the frontier never runs ahead of the
  computation),
* every UPDATE sent at iterations ≤ k has been gathered, and
* no processor has local pending work at an iteration ≤ k
  (each processor reports a *watermark*: the lowest iteration of any
  uncommitted in-flight vertex update, queued message or buffered input).

A loop *converges* when it quiesces: every active iteration has terminated
and no processor holds pending work — equivalently, the next iteration
would perform zero updates (paper §4.3).  :func:`passive` is the one
definition of "no pending work"; the live backend adds the channel counts
its reports carry (:meth:`ProgressTracker.channels`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.messages import ProgressReport

#: Name of the master process's end of a channel in a report's counts.
MASTER_CHANNEL = "master"


def passive(watermark: float, unacked: int, buffered: int) -> bool:
    """A processor with no pending work: no vertex update left to commit
    (watermark ∞), no session message unacknowledged (an ack leaves at
    the end of the handler call that processed its message — bare or on
    an envelope going back — so an empty outbox means delivered *and*
    processed) and no update parked by the delay bound."""
    return math.isinf(watermark) and unacked == 0 and buffered == 0


@dataclass
class _ProcessorView:
    """Latest report from one processor (stale reports are dropped)."""

    seq: int = -1
    counters: dict[int, tuple[int, int, int]] = field(default_factory=dict)
    watermark: float = math.inf
    inputs_gathered: int = 0
    unacked: int = 0
    buffered: int = 0
    #: ``(sent, received)`` channel counts of the report, or None.
    channels: tuple | None = None


class ProgressTracker:
    """Termination/convergence detector for one loop."""

    def __init__(self, loop: str, processors: list[str]) -> None:
        self.loop = loop
        self.processors = list(processors)
        self._views = {name: _ProcessorView() for name in self.processors}
        # First iteration that has not terminated.
        self.frontier = 0
        self.started = False

    # ------------------------------------------------------------- inputs
    def apply_report(self, report: ProgressReport) -> bool:
        """Fold one report in; returns True if it was fresh."""
        view = self._views.get(report.processor)
        if view is None or report.seq <= view.seq:
            return False
        view.seq = report.seq
        view.counters = dict(report.counters)
        view.watermark = report.watermark
        view.inputs_gathered = report.inputs_gathered
        view.unacked = report.unacked
        view.buffered = report.buffered
        view.channels = report.channels
        if report.counters:
            self.started = True
        return True

    def forget_all(self) -> None:
        """Invalidate every processor's view.  Used on recovery: the
        restarted processor's state rolled back, and its peers are about
        to generate repair traffic (re-sent PREPAREs, re-scattered
        values) that their latest reports cannot reflect yet — deciding
        termination or convergence from those stale reports races the
        repair."""
        for processor in self._views:
            self._views[processor] = _ProcessorView()

    # ------------------------------------------------------------ queries
    def totals(self, iteration: int) -> tuple[int, int, int]:
        commits = sent = gathered = 0
        for view in self._views.values():
            entry = view.counters.get(iteration)
            if entry is not None:
                commits += entry[0]
                sent += entry[1]
                gathered += entry[2]
        return commits, sent, gathered

    def total_commits(self) -> int:
        return sum(entry[0] for view in self._views.values()
                   for entry in view.counters.values())

    def total_inputs(self) -> int:
        return sum(view.inputs_gathered for view in self._views.values())

    def view(self, processor: str) -> _ProcessorView | None:
        """The latest report folded in from ``processor`` (read-only:
        per-processor stall diagnostics)."""
        return self._views.get(processor)

    def min_watermark(self) -> float:
        return min((view.watermark for view in self._views.values()),
                   default=math.inf)

    def max_active_iteration(self) -> int:
        """Largest iteration with any recorded activity, or -1."""
        iterations = [k for view in self._views.values()
                      for k in view.counters]
        return max(iterations, default=-1)

    def _iteration_quiet(self, iteration: int) -> bool:
        """Iteration ``k`` may terminate when no vertex still has pending
        work at ≤ k and every update sent at k-1 has been gathered (an
        in-flight update of iteration j causes commits at j+1, so only
        messages of k-1 and earlier can reopen k; earlier iterations were
        drained when they terminated).  Updates sent *at* k are the output
        of k — under a delay bound they sit buffered until k terminates,
        and must not block that termination."""
        if iteration > 0:
            _commits, sent, gathered = self.totals(iteration - 1)
            if gathered < sent:
                return False
        return self.min_watermark() > iteration

    def all_reported(self) -> bool:
        return all(view.seq >= 0 for view in self._views.values())

    # -------------------------------------------------------- termination
    def advance(self) -> list[int]:
        """Terminate as many frontier iterations as the counters allow;
        returns the newly terminated iteration numbers in order."""
        if not self.all_reported() or not self.started:
            return []
        terminated: list[int] = []
        ceiling = self.max_active_iteration()
        while self.frontier <= ceiling and self._iteration_quiet(self.frontier):
            terminated.append(self.frontier)
            self.frontier += 1
        return terminated

    @property
    def converged(self) -> bool:
        """Quiescent: every processor's last report is :func:`passive` —
        the next iteration would perform zero updates (paper §4.3).
        Unlike per-iteration message draining, this criterion survives a
        processor crash, whose gathered-counters die with it while the
        senders' sent-counters persist."""
        return self.all_reported() and all(
            passive(view.watermark, view.unacked, view.buffered)
            for view in self._views.values())

    def channels(self, master_sent: dict[str, int],
                 ) -> tuple[list[str], dict[tuple[str, str], tuple]]:
        """Match the two ends of every channel between processes, as the
        last reports state them.

        ``master_sent`` maps each live processor to the payload frames
        the master process has put on its queue (a processor it does not
        name, a killed one, is left out).  Returns the processors whose
        last report carries no counts (none yet, or taken with frames
        unhandled), and every channel ``(src, dst) -> (sent, received)``
        either end lists — ``None`` where an end does not list it (a peer
        that already dropped it, or was respawned without it).  A channel
        is settled when both agree."""
        unknown = []
        sent: dict[tuple[str, str], int] = {
            (MASTER_CHANNEL, name): count
            for name, count in master_sent.items()}
        received: dict[tuple[str, str], int] = {}
        for name in master_sent:
            counts = self._views[name].channels
            if counts is None:
                unknown.append(name)
                continue
            out, into = counts
            for dst, count in out:
                sent[name, dst] = count
            for src, count in into:
                received[src, name] = count
        return unknown, {channel: (sent.get(channel), received.get(channel))
                         for channel in sorted(sent.keys() | received.keys())}

    @property
    def last_terminated(self) -> int:
        return self.frontier - 1
