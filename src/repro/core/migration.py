"""Live migration planning (paper §5.1, with R-Storm-style scoring).

The master feeds every main-loop progress report into a
:class:`MigrationPlanner`.  The planner keeps, per processor, a *windowed*
busy-time rate (the delta between consecutive reports, not the cumulative
total — cumulative totals stay skewed long after the load itself has
balanced, which makes a naive planner thrash) and the per-vertex gather
weights the processors sample into their reports.

``plan()`` scores candidate moves cost/benefit style: each vertex is
charged the share of its source's busy rate proportional to its reported
gather weight, a move is only proposed when shifting that share to the
least-loaded target actually narrows the imbalance, and moves are batched
(up to ``migration_max_batch``) so one migration round can empty a hot
spot instead of peeling one vertex per cooldown.  All orderings are
deterministic (ties break on ``str(vertex)``), so planning is a pure
function of the report history — a requirement for the simulator's
same-seed byte-identical replays.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.config import TornadoConfig

#: EWMA smoothing of the per-report busy-rate windows.  Raw windows are
#: noisy — one idle report window reads as rate 0, which trivially passes
#: any hottest/coldest ratio test and makes a balanced cluster thrash.
RATE_ALPHA = 0.3


class MigrationPlanner:
    """Scores candidate vertex moves against per-processor load."""

    def __init__(self, config: TornadoConfig) -> None:
        self.config = config
        #: Cumulative busy time as of the last report, per processor.
        self._busy_total: dict[str, float] = {}
        #: Report time of the last observation, per processor.
        self._obs_time: dict[str, float] = {}
        #: Windowed busy rate (fraction of wall time busy), per processor.
        self._busy_rate: dict[str, float] = {}
        #: vertex -> gather weight, per processor (last report wins).
        self._vertex_load: dict[str, dict[Any, int]] = {}

    # ------------------------------------------------------------ feeding
    def observe(self, processor: str, busy_time: float, now: float,
                vertex_load: tuple = ()) -> None:
        """Fold one main-loop progress report into the load model."""
        last_busy = self._busy_total.get(processor)
        last_time = self._obs_time.get(processor)
        if last_busy is not None and busy_time < last_busy:
            # Counter regression: the processor crashed and recovered, so
            # its cumulative busy counter restarted from zero.  The first
            # post-recovery window is unmeasurable — folding its clamped-0
            # delta into the EWMA would drag a genuinely hot processor's
            # rate down and mask real imbalance.  Re-seed the baseline and
            # skip the window instead (the rate resumes from the next
            # report pair).
            self._busy_total[processor] = busy_time
            self._obs_time[processor] = now
            return
        if last_busy is not None and last_time is not None \
                and now > last_time:
            window = (busy_time - last_busy) / (now - last_time)
            previous = self._busy_rate.get(processor)
            if previous is None:
                self._busy_rate[processor] = window
            else:
                self._busy_rate[processor] = (
                    RATE_ALPHA * window + (1 - RATE_ALPHA) * previous)
        self._busy_total[processor] = busy_time
        self._obs_time[processor] = now
        if vertex_load:
            self._vertex_load[processor] = dict(vertex_load)

    def rates(self) -> dict[str, float]:
        """Snapshot of the windowed busy rates (read-only copy)."""
        return dict(self._busy_rate)

    def forget(self, processor: str) -> None:
        """Invalidate a processor's stats (it crashed and recovered: its
        busy counter restarted and its hot set is stale)."""
        self._busy_total.pop(processor, None)
        self._obs_time.pop(processor, None)
        self._busy_rate.pop(processor, None)
        self._vertex_load.pop(processor, None)

    # ----------------------------------------------------------- planning
    def imbalanced(self, processors: list[str]) -> bool:
        """The trigger condition, evaluated on windowed rates: every
        processor observed, gap above the configured floor and ratio."""
        if any(name not in self._busy_rate for name in processors):
            return False
        rates = [self._busy_rate[name] for name in processors]
        hottest, coldest = max(rates), min(rates)
        return (hottest - coldest > self.config.rebalance_min_gap
                and hottest > self.config.rebalance_factor
                * max(coldest, 1e-9))

    def plan(self, processors: list[str],
             owner: Callable[[Any], str]
             ) -> tuple[tuple[Any, str, str], ...]:
        """Propose a batch of ``(vertex, source, target)`` moves, best
        first; empty when balanced or when no beneficial move exists."""
        if not self.imbalanced(processors):
            return ()
        est = {name: self._busy_rate[name] for name in processors}
        moves: list[tuple[Any, str, str]] = []
        sources = sorted(processors, key=lambda p: (-est[p], p))
        for source in sources:
            load = self._vertex_load.get(source, {})
            total_weight = sum(load.values())
            if total_weight <= 0:
                continue
            candidates = sorted(load,
                                key=lambda v: (-load[v], str(v)))
            for vertex in candidates:
                if len(moves) >= self.config.migration_max_batch:
                    return tuple(moves)
                if owner(vertex) != source:
                    continue  # stale sample: the vertex moved already
                share = est[source] * load[vertex] / total_weight
                target = min((p for p in processors if p != source),
                             key=lambda p: (est[p], p))
                # Cost/benefit: only move when the shifted share narrows
                # the source/target imbalance instead of inverting it.
                if est[source] - est[target] <= share:
                    continue
                est[source] -= share
                est[target] += share
                moves.append((vertex, source, target))
        return tuple(moves)
