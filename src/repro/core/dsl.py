"""A small declarative layer over the vertex API (paper §8 sketches a
high-level language as future work).

Most propagation-style graph analyses fit one algebraic shape: every vertex
keeps, per producer, the best *offer* received along that edge; its value is
a combination of those slots; committing sends ``extend(value, weight)``
along each out-edge; retractions send the algebra's *bottom* ("no offer").
:class:`AlgebraicProgram` implements that shape once — with full support
for evolving, retractable edge streams — and a workload is just an
:class:`Algebra`:

>>> sssp = shortest_paths("s")              # min-plus
>>> reach = reachability("s")               # boolean or
>>> widest = widest_path("s")               # max-min bottleneck
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core.vertex import VertexContext, VertexProgram, replace_update
from repro.streams.model import ADD_EDGE, REMOVE_EDGE


@dataclass(frozen=True)
class Algebra:
    """Declarative specification of a slot-combining graph computation.

    Attributes
    ----------
    bottom:
        The "no information" value; sending it retracts an offer.
    combine:
        ``(vertex_id, slots) -> value`` — recompute a vertex's value from
        its per-producer offers (the root case lives in this closure).
    extend:
        ``(value, weight) -> offer`` — transform a value along an edge.
    changed:
        Equality escape hatch, e.g. tolerance comparisons.
    combine_updates:
        Optional associative ``(older, newer) -> merged`` combiner the
        session window applies to same-``(producer, consumer)`` offers that
        share a dispatch window.  Slot-replacement semantics make
        last-wins (:func:`repro.core.vertex.replace_update`) sound for
        every algebra; ``None`` keeps batching without merging.
    """

    bottom: Any
    combine: Callable[[Any, dict], Any]
    extend: Callable[[Any, float], Any]
    changed: Callable[[Any, Any], bool] = lambda old, new: old != new
    combine_updates: Callable[[Any, Any], Any] | None = None


@dataclass
class AlgebraicValue:
    value: Any
    slots: dict
    edge_weights: dict
    retracted: set


class AlgebraicProgram(VertexProgram):
    """Generic vertex program executing an :class:`Algebra`."""

    def __init__(self, algebra: Algebra) -> None:
        self.algebra = algebra
        self.update_combiner = algebra.combine_updates

    def init(self, ctx: VertexContext) -> None:
        value = self.algebra.combine(ctx.vertex_id, {})
        ctx.value = AlgebraicValue(value, {}, {}, set())

    def gather(self, ctx: VertexContext, source: Any, delta: Any) -> bool:
        state: AlgebraicValue = ctx.value
        if source is None:
            return self._gather_input(ctx, state, delta)
        if delta == self.algebra.bottom:
            state.slots.pop(source, None)
        else:
            state.slots[source] = delta
        new_value = self.algebra.combine(ctx.vertex_id, state.slots)
        if self.algebra.changed(state.value, new_value):
            state.value = new_value
            return True
        return False

    def _gather_input(self, ctx: VertexContext, state: AlgebraicValue,
                      delta: Any) -> bool:
        u, v, w = (delta.payload if len(delta.payload) == 3
                   else (*delta.payload, 1.0))
        del u
        if delta.kind == ADD_EDGE:
            ctx.add_target(v)
            state.edge_weights[v] = float(w)
            state.retracted.discard(v)
            return state.value != self.algebra.bottom
        if delta.kind == REMOVE_EDGE:
            ctx.remove_target(v)
            state.edge_weights.pop(v, None)
            state.retracted.add(v)
            return True
        return False

    def scatter(self, ctx: VertexContext) -> None:
        state: AlgebraicValue = ctx.value
        for target in state.retracted:
            ctx.emit(target, self.algebra.bottom)
        state.retracted = set()
        for target in ctx.targets:
            if state.value == self.algebra.bottom:
                ctx.emit(target, self.algebra.bottom)
            else:
                weight = state.edge_weights.get(target, 1.0)
                ctx.emit(target, self.algebra.extend(state.value, weight))

    def snapshot_value(self, value: AlgebraicValue) -> AlgebraicValue:
        return AlgebraicValue(value.value, dict(value.slots),
                              dict(value.edge_weights),
                              set(value.retracted))


# ------------------------------------------------------------- factories
def shortest_paths(source: Any,
                   max_distance: float = float("inf")) -> AlgebraicProgram:
    """Min-plus: distance = min over offers; DSL twin of SSSPProgram."""
    inf = float("inf")

    def combine(vertex_id: Any, slots: dict) -> float:
        if vertex_id == source:
            return 0.0
        best = min(slots.values(), default=inf)
        return best if best < max_distance else inf

    return AlgebraicProgram(Algebra(
        bottom=inf,
        combine=combine,
        extend=lambda value, weight: value + weight,
        combine_updates=replace_update,
    ))


def reachability(source: Any) -> AlgebraicProgram:
    """Boolean-or: which vertices does the source reach?"""

    def combine(vertex_id: Any, slots: dict) -> bool:
        return vertex_id == source or any(slots.values())

    return AlgebraicProgram(Algebra(
        bottom=False,
        combine=combine,
        extend=lambda value, weight: value,
        combine_updates=replace_update,
    ))


def widest_path(source: Any) -> AlgebraicProgram:
    """Max-min: the bottleneck bandwidth of the best path from the
    source (a new workload the DSL gives for free)."""
    inf = float("inf")

    def combine(vertex_id: Any, slots: dict) -> float:
        if vertex_id == source:
            return inf
        return max(slots.values(), default=0.0)

    return AlgebraicProgram(Algebra(
        bottom=0.0,
        combine=combine,
        extend=lambda value, weight: min(value, weight),
        combine_updates=replace_update,
    ))


def min_label() -> AlgebraicProgram:
    """Min-label propagation (connected components on an undirected
    router); labels are vertex ids."""

    def combine(vertex_id: Any, slots: dict) -> Any:
        candidates = list(slots.values()) + [vertex_id]
        return min(candidates)

    return AlgebraicProgram(Algebra(
        bottom=None,
        combine=combine,
        extend=lambda value, weight: value,
        combine_updates=replace_update,
    ))
