"""Single-Source Shortest Path over a retractable edge stream.

The vertex program generalises the paper's Appendix-B pseudo code: each
vertex keeps, per producer, the best offer it has received
(``source_lengths``), so both improvements *and* retractions converge —
when an edge is deleted, the producer sends an infinite offer and the
consumer recomputes its distance from the remaining offers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from repro.core.vertex import VertexContext, VertexProgram, replace_update
from repro.streams.model import ADD_EDGE, REMOVE_EDGE

INF = math.inf


@dataclass
class SSSPValue:
    """Vertex state: current distance plus supporting book-keeping."""

    distance: float = INF
    #: best offer per producer (already includes the edge weight)
    source_lengths: dict[Any, float] = field(default_factory=dict)
    #: out-edge weights per target
    edge_weights: dict[Any, float] = field(default_factory=dict)
    #: targets removed since the last scatter, owed a retraction
    retracted: set = field(default_factory=set)


class SSSPProgram(VertexProgram):
    """Distance = min over producers of (their distance + edge weight)."""

    # Gather replaces the per-producer offer slot, so only the newest
    # offer in a dispatch window matters (min would swallow retractions:
    # an INF offer after an edge delete must not lose to a stale one).
    update_combiner = staticmethod(replace_update)

    def __init__(self, source: Any, max_distance: float = INF) -> None:
        """``max_distance`` caps path lengths: offers at or above it count
        as unreachable.  Set it (e.g. to #vertices × max weight) when the
        stream deletes edges on a cyclic graph — it is the classic fix for
        distance-vector count-to-infinity."""
        self.source = source
        self.max_distance = max_distance

    def init(self, ctx: VertexContext) -> None:
        distance = 0.0 if ctx.vertex_id == self.source else INF
        ctx.value = SSSPValue(distance=distance)

    # --------------------------------------------------------------- gather
    def gather(self, ctx: VertexContext, source: Any, delta: Any) -> bool:
        value: SSSPValue = ctx.value
        if source is None:
            return self._gather_input(ctx, value, delta)
        # Producer update: `delta` is the offered distance through it.
        offer = float(delta)
        if math.isinf(offer):
            value.source_lengths.pop(source, None)
        else:
            value.source_lengths[source] = offer
        return self._recompute(ctx, value)

    def _gather_input(self, ctx: VertexContext, value: SSSPValue,
                      delta: Any) -> bool:
        _u, v, w = delta.payload
        if delta.kind == ADD_EDGE:
            ctx.add_target(v)
            value.edge_weights[v] = w
            value.retracted.discard(v)
            # A (re)announcement of our distance is owed to the new target.
            return not math.isinf(value.distance)
        if delta.kind == REMOVE_EDGE:
            ctx.remove_target(v)
            value.edge_weights.pop(v, None)
            value.retracted.add(v)
            return True
        return False

    def _recompute(self, ctx: VertexContext, value: SSSPValue) -> bool:
        if ctx.vertex_id == self.source:
            best = 0.0
        else:
            best = min(value.source_lengths.values(), default=INF)
            if best >= self.max_distance:
                best = INF
        if best != value.distance:
            value.distance = best
            return True
        return False

    # -------------------------------------------------------------- scatter
    def scatter(self, ctx: VertexContext) -> None:
        value: SSSPValue = ctx.value
        for target in value.retracted:
            ctx.emit(target, INF)
        value.retracted = set()
        for target in ctx.targets:
            if math.isinf(value.distance):
                # Our offers are void; consumers must drop their slots.
                ctx.emit(target, INF)
            else:
                weight = value.edge_weights.get(target, 1.0)
                ctx.emit(target, value.distance + weight)

    def snapshot_value(self, value: SSSPValue) -> SSSPValue:
        return SSSPValue(value.distance, dict(value.source_lengths),
                         dict(value.edge_weights), set(value.retracted))


def reference_sssp(edges: list[tuple], source: Any) -> dict[Any, float]:
    """Dijkstra on a static edge list — the oracle used by tests and
    benchmark shape checks."""
    import heapq

    adjacency: dict[Any, list[tuple[Any, float]]] = {}
    vertices = set()
    for edge in edges:
        u, v, w = edge if len(edge) == 3 else (*edge, 1.0)
        adjacency.setdefault(u, []).append((v, float(w)))
        vertices.add(u)
        vertices.add(v)
    distances = {vertex: INF for vertex in vertices}
    if source not in distances:
        distances[source] = 0.0
        return distances
    distances[source] = 0.0
    heap = [(0.0, repr(source), source)]
    done = set()
    while heap:
        dist, _key, vertex = heapq.heappop(heap)
        if vertex in done:
            continue
        done.add(vertex)
        for target, weight in adjacency.get(vertex, []):
            candidate = dist + weight
            if candidate < distances[target]:
                distances[target] = candidate
                heapq.heappush(heap, (candidate, repr(target), target))
    return distances
