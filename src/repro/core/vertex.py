"""The graph-parallel programming model (paper Appendix B).

Applications implement a :class:`VertexProgram` — ``init`` / ``gather`` /
``scatter`` — and an :class:`InputRouter` that maps stream tuples to vertex
deltas.  The runtime calls ``gather`` whenever a vertex receives an input or
an update and ``scatter`` when the vertex commits; ``scatter`` may only
reach the vertex's declared targets, which the program maintains with
``ctx.add_target`` / ``ctx.remove_target``.

``gather`` must return whether it *changed* the vertex (a changed vertex
schedules an update; an unchanged one stays quiet, which is what lets loops
converge).  ``gather`` must also be idempotent per ``(source, data)`` —
store per-source slots rather than accumulating blindly — because delivery
is at-least-once.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Protocol

from repro.streams.model import StreamTuple

MAIN = "main"


@dataclass
class VertexState:
    """Runtime state of one vertex in one loop."""

    vertex_id: Any
    value: Any = None
    targets: set = field(default_factory=set)
    last_commit_iteration: int = -1
    last_commit_time: float = float("-inf")


class VertexContext:
    """View of one vertex handed to the user program's callbacks."""

    def __init__(self, state: VertexState, loop: str, iteration: int) -> None:
        self._state = state
        self.loop = loop
        self.iteration = iteration
        self._emitted: dict[Any, Any] = {}

    # ------------------------------------------------------------ identity
    @property
    def vertex_id(self) -> Any:
        return self._state.vertex_id

    @property
    def value(self) -> Any:
        return self._state.value

    @value.setter
    def value(self, new_value: Any) -> None:
        self._state.value = new_value

    @property
    def targets(self) -> frozenset:
        return frozenset(self._state.targets)

    def get_loop(self) -> str:
        """Paper's ``getLoop()``: ``"main"`` or a branch-loop name."""
        return self.loop

    @property
    def in_main_loop(self) -> bool:
        return self.loop == MAIN

    # ---------------------------------------------------------- mutation
    def add_target(self, target: Any) -> None:
        self._state.targets.add(target)

    def remove_target(self, target: Any) -> None:
        self._state.targets.discard(target)

    def emit(self, target: Any, data: Any) -> None:
        """Queue ``data`` for ``target`` — only valid inside ``scatter``
        and only towards declared targets."""
        self._emitted[target] = data

    def emit_all(self, data: Any) -> None:
        for target in self._state.targets:
            self._emitted[target] = data

    def take_emitted(self) -> dict[Any, Any]:
        emitted, self._emitted = self._emitted, {}
        return emitted


@dataclass(frozen=True, slots=True)
class Delta:
    """One gather-able change: a routed stream input or nothing special."""

    kind: str
    payload: Any
    weight: int = 1


def replace_update(old: Any, new: Any) -> Any:
    """The last-wins combiner: a later update from the same producer
    supersedes the earlier one.  This is the only combiner that is sound
    for every program honouring the per-source-slot gather contract above
    (``gather`` replaces the producer's slot, so only the newest message
    matters) — in particular it preserves retractions, which idempotent
    merges like ``min`` would swallow."""
    del old
    return new


class VertexProgram:
    """User-defined vertex behaviour; subclass and override."""

    #: Optional associative combiner ``(older, newer) -> merged`` applied
    #: by the session window when several updates from the same producer to
    #: the same consumer share one dispatch window.  ``None`` disables
    #: merging (updates still share an envelope, all are delivered).
    #: Programs whose ``gather`` keeps per-source slots should declare
    #: :func:`replace_update`; accumulating programs must leave ``None``.
    update_combiner: Callable[[Any, Any], Any] | None = None

    def init(self, ctx: VertexContext) -> None:
        """Initialise a newly created vertex."""

    def gather(self, ctx: VertexContext, source: Any, delta: Any) -> bool:
        """Fold one input (``source is None``) or one producer update into
        the vertex; return True iff the vertex value changed."""
        raise NotImplementedError

    def scatter(self, ctx: VertexContext) -> None:
        """Emit updates to targets via ``ctx.emit`` / ``ctx.emit_all``."""
        raise NotImplementedError

    def activate_on_fork(self, ctx: VertexContext,
                         recently_updated: bool) -> bool:
        """Should this vertex self-activate when a branch loop forks?
        Default: only vertices the main loop updated since the last fork
        (plus any with pending inputs, handled by the runtime).

        ``ctx`` is a read-only view over the *main loop's live state*: the
        branch shares that state until one side writes it, so this hook
        must not mutate ``ctx.value`` or the targets (and must not emit).
        Read ``ctx.vertex_id`` or the value; decide; return."""
        return recently_updated

    def gather_cost(self, ctx: VertexContext, source: Any,
                    delta: Any) -> float | None:
        """Optional per-gather virtual-time cost override (seconds)."""
        return None

    def snapshot_value(self, value: Any) -> Any:
        """Copy a committed value for the versioned store; override when
        ``deepcopy`` is too slow for the value type."""
        return copy.deepcopy(value)


class InputRouter(Protocol):
    """Maps one stream tuple to the vertex deltas it induces."""

    def route(self, tup: StreamTuple) -> Iterable[tuple[Any, Delta]]:
        """Yield ``(vertex_id, delta)`` pairs."""
        ...


@dataclass
class Application:
    """Everything the runtime needs to host a workload."""

    program: VertexProgram
    router: InputRouter
    name: str = "app"
