"""Stream sources: turn static datasets into timestamped evolving streams.

A source is an iterator of :class:`StreamTuple`.  Timestamps come from a
:class:`RateSchedule`, so the same dataset arrives at the same instants
every run.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.streams.model import (ADD_EDGE, ADD_INSTANCE, ADD_POINT,
                                 REMOVE_EDGE, StreamTuple)


class RateSchedule:
    """Assigns arrival timestamps to a sequence of items."""

    def timestamps(self, count: int) -> Iterator[float]:
        raise NotImplementedError


class UniformRate(RateSchedule):
    """``rate`` items per virtual second, evenly spaced, starting at
    ``start``."""

    def __init__(self, rate: float, start: float = 0.0) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = rate
        self.start = start

    def timestamps(self, count: int) -> Iterator[float]:
        gap = 1.0 / self.rate
        return (self.start + gap * (i + 1) for i in range(count))


def stream_from(items: Iterable[tuple[str, Any, int]],
                schedule: RateSchedule,
                count: int | None = None) -> list[StreamTuple]:
    """Zip ``(kind, payload, weight)`` items with schedule timestamps."""
    materialised = list(items) if count is None else list(items)[:count]
    times = schedule.timestamps(len(materialised))
    return [StreamTuple(float(t), kind, payload, weight)
            for t, (kind, payload, weight) in zip(times, materialised)]


def edge_stream(edges: Sequence[tuple[Any, Any]], schedule: RateSchedule,
                delete_fraction: float = 0.0,
                rng: np.random.Generator | None = None) -> list[StreamTuple]:
    """Build a retractable edge stream from a static edge list.

    With ``delete_fraction > 0``, that fraction of inserted edges is later
    retracted (a `REMOVE_EDGE` tuple), interleaved into the stream — the
    search-engine scenario of paper §3.1.
    """
    items: list[tuple[str, Any, int]] = [
        (ADD_EDGE, edge, 1) for edge in edges]
    if delete_fraction > 0:
        if rng is None:
            raise ValueError("delete_fraction > 0 requires an rng")
        n_deletes = int(len(edges) * delete_fraction)
        victims = rng.choice(len(edges), size=n_deletes, replace=False)
        for index in sorted(int(v) for v in victims):
            # Retract no earlier than 2 positions after the insert so the
            # stream stays causally sensible under uniform rates.
            slot = min(len(items), index + 2 + int(rng.integers(0, 5)))
            items.insert(slot, (REMOVE_EDGE, edges[index], -1))
    return stream_from(items, schedule)


def point_stream(points: Sequence[Any],
                 schedule: RateSchedule) -> list[StreamTuple]:
    """Stream of clustering points (KMeans workload)."""
    return stream_from(((ADD_POINT, point, 1) for point in points),
                       schedule)


def instance_stream(instances: Sequence[Any],
                    schedule: RateSchedule) -> list[StreamTuple]:
    """Stream of labelled training instances (SVM / LR workloads)."""
    return stream_from(((ADD_INSTANCE, instance, 1)
                        for instance in instances), schedule)

