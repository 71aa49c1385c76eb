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
would perform zero updates (paper §4.3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.messages import ProgressReport


@dataclass
class _ProcessorView:
    """Latest report from one processor (stale reports are dropped)."""

    seq: int = -1
    counters: dict[int, tuple[int, int, int]] = field(default_factory=dict)
    watermark: float = math.inf
    inputs_gathered: int = 0
    unacked: int = 0
    buffered: int = 0


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
        if report.counters:
            self.started = True
        return True

    def forget_processor(self, processor: str) -> None:
        """A processor restarted from a checkpoint: drop its stale view
        until fresh cumulative reports arrive."""
        if processor in self._views:
            self._views[processor] = _ProcessorView()

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

    def pending_work(self) -> tuple[int, int]:
        """``(unacked, buffered)`` totals across processors — the stall
        diagnostic a JobManager reads when a tenant misses its liveness
        window."""
        unacked = sum(view.unacked for view in self._views.values())
        buffered = sum(view.buffered for view in self._views.values())
        return unacked, buffered

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
        """Quiescent: every processor reports no pending vertex work, no
        unacknowledged session message (acks happen at handling time, so
        an empty outbox means delivered *and* processed) and no update
        parked by the delay bound — the next iteration would perform zero
        updates (paper §4.3).  Unlike per-iteration message draining, this
        criterion survives a processor crash, whose gathered-counters die
        with it while the senders' sent-counters persist."""
        if not self.all_reported():
            return False
        if not math.isinf(self.min_watermark()):
            return False
        return all(view.unacked == 0 and view.buffered == 0
                   for view in self._views.values())

    @property
    def last_terminated(self) -> int:
        return self.frontier - 1
