"""PageRank over a retractable edge stream.

Uses the unnormalised fixed-point form ``PR(v) = (1-d) + d·Σ PR(u)/deg(u)``
(per-source contribution slots make gathering idempotent and retractable:
a deleted edge's producer sends a zero contribution).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import math

from repro.core.vertex import VertexContext, VertexProgram, replace_update
from repro.streams.model import ADD_EDGE, REMOVE_EDGE


@dataclass
class PageRankValue:
    rank: float
    contribs: dict[Any, float] = field(default_factory=dict)
    retracted: set = field(default_factory=set)


class PageRankProgram(VertexProgram):
    """Damped PageRank with tolerance-based quiescence."""

    # Contributions live in per-source slots; a window's newest
    # contribution from a producer supersedes its earlier ones.
    update_combiner = staticmethod(replace_update)

    def __init__(self, damping: float = 0.85,
                 tolerance: float = 1e-3) -> None:
        if not 0.0 < damping < 1.0:
            raise ValueError(f"damping must be in (0, 1), got {damping}")
        self.damping = damping
        self.tolerance = tolerance

    def init(self, ctx: VertexContext) -> None:
        ctx.value = PageRankValue(rank=1.0 - self.damping)

    def gather(self, ctx: VertexContext, source: Any, delta: Any) -> bool:
        value: PageRankValue = ctx.value
        if source is None:
            _u, v, _w = delta.payload
            if delta.kind == ADD_EDGE:
                ctx.add_target(v)
                value.retracted.discard(v)
                # Out-degree changed: every target's share changes.
                return True
            if delta.kind == REMOVE_EDGE:
                ctx.remove_target(v)
                value.retracted.add(v)
                return True
            return False
        contribution = float(delta)
        if contribution <= 0.0:
            value.contribs.pop(source, None)
        else:
            value.contribs[source] = contribution
        # fsum: the exact sum rounded once, so the rank is independent of
        # the order contributions arrived in (plain sum is not, which
        # would make converged ranks depend on message interleaving).
        new_rank = (1.0 - self.damping
                    + self.damping * math.fsum(value.contribs.values()))
        if abs(new_rank - value.rank) > self.tolerance:
            value.rank = new_rank
            return True
        return False

    def scatter(self, ctx: VertexContext) -> None:
        value: PageRankValue = ctx.value
        for target in value.retracted:
            ctx.emit(target, 0.0)
        value.retracted = set()
        targets = ctx.targets
        if not targets:
            return
        share = value.rank / len(targets)
        for target in targets:
            ctx.emit(target, share)

    def snapshot_value(self, value: PageRankValue) -> PageRankValue:
        return PageRankValue(value.rank, dict(value.contribs),
                             set(value.retracted))


def reference_pagerank(edges: list[tuple], damping: float = 0.85,
                       iterations: int = 200) -> dict[Any, float]:
    """Power iteration on the same fixed-point equation (dangling vertices
    contribute nothing), used as the oracle in tests and benches."""
    # Set semantics: parallel edges collapse, matching the vertex program
    # (a target is either present or absent).
    targets: dict[Any, set[Any]] = {}
    vertices = set()
    for edge in edges:
        u, v = edge[0], edge[1]
        targets.setdefault(u, set()).add(v)
        vertices.add(u)
        vertices.add(v)
    ranks = {vertex: 1.0 - damping for vertex in vertices}
    for _ in range(iterations):
        incoming = {vertex: 0.0 for vertex in vertices}
        for u, outs in targets.items():
            if outs:
                share = ranks[u] / len(outs)
                for v in outs:
                    incoming[v] += share
        ranks = {vertex: (1.0 - damping) + damping * incoming[vertex]
                 for vertex in vertices}
    return ranks
