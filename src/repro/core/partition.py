"""Vertex partitioning (paper §5.1).

Vertices are hash-partitioned across processors; the scheme is kept in
shared storage so both ingesters and processors can resolve the owner of
any vertex.  The master may repartition when load skews: the live migration
subsystem (``repro.core.migration``) moves batches of vertices between
processors while the main loop keeps running, fencing stale-owner
deliveries with the scheme's *epoch* — every batch reassignment bumps the
epoch exactly once, and every ``Repartition`` notice carries the epoch it
was cut at, so processors can ignore notices from an older layout.
"""

from __future__ import annotations

import zlib
from typing import Any, Iterable


def _stable_hash(value: Any) -> int:
    return zlib.crc32(repr(value).encode("utf-8"))


class PartitionScheme:
    """Maps vertex ids to processor names."""

    def __init__(self, processors: list[str]) -> None:
        if not processors:
            raise ValueError("need at least one processor")
        self.processors = list(processors)
        # Hashing runs against a sorted ring so ownership is a function of
        # the processor *set*, not the order the list was built in.
        self._ring = sorted(self.processors)
        # The ring never changes, so a vertex's hash home is computed on
        # its first lookup and cached.
        self._homes: dict[Any, str] = {}
        self._overrides: dict[Any, str] = {}
        #: Layout epoch: bumped once per (batch) reassignment.  Messages
        #: cut against an older epoch are fenced by their receivers.
        self.epoch = 0
        #: In-flight live handoffs: vertex -> (epoch, source, target).
        #: Kept in the shared scheme so a target hears about a handoff
        #: racing toward it even before its Repartition notice lands —
        #: otherwise a gather outrunning the notice would make the target
        #: materialise the vertex from its *last committed* version and
        #: the source's release (carrying uncommitted work) would be
        #: silently ignored.
        self._migrating: dict[Any, tuple[int, str, str]] = {}

    def hash_home(self, vertex_id: Any) -> str:
        """The owner hashing alone would assign (ignoring overrides)."""
        home = self._homes.get(vertex_id)
        if home is None:
            home = self._homes[vertex_id] = self._ring[
                _stable_hash(vertex_id) % len(self._ring)]
        return home

    def owner(self, vertex_id: Any) -> str:
        override = self._overrides.get(vertex_id)
        if override is not None:
            return override
        return self.hash_home(vertex_id)

    def reassign_batch(self, moves: Iterable[tuple[Any, str]]) -> int:
        """Atomically apply a batch of ``(vertex, new_owner)`` pins with a
        single epoch bump; returns the new epoch.  A vertex reassigned back
        to its hash-home drops its override outright, so ``_overrides``
        stays bounded by the number of *displaced* vertices rather than the
        number of moves ever made."""
        resolved = []
        for vertex_id, processor in moves:
            if processor not in self._ring:
                raise ValueError(f"unknown processor: {processor!r}")
            resolved.append((vertex_id, processor))
        if not resolved:
            return self.epoch
        for vertex_id, processor in resolved:
            if processor == self.hash_home(vertex_id):
                self._overrides.pop(vertex_id, None)
            else:
                self._overrides[vertex_id] = processor
        self.epoch += 1
        return self.epoch

    def reassign(self, vertex_id: Any, processor: str) -> None:
        """Explicitly pin a single vertex (one epoch bump)."""
        self.reassign_batch([(vertex_id, processor)])

    # ------------------------------------------------- in-flight handoffs
    def mark_migrating(self, epoch: int,
                       moves: Iterable[tuple[Any, str, str]]) -> None:
        """Record a batch of live ``(vertex, source, target)`` handoffs
        cut at ``epoch`` as in flight."""
        for vertex_id, source, target in moves:
            self._migrating[vertex_id] = (epoch, source, target)

    def migrating_to(self, vertex_id: Any) -> str | None:
        """The processor a vertex is currently handing off to, if any."""
        entry = self._migrating.get(vertex_id)
        return entry[2] if entry is not None else None

    def migration_source(self, vertex_id: Any) -> str | None:
        """The processor a vertex is currently handing off from, if any."""
        entry = self._migrating.get(vertex_id)
        return entry[1] if entry is not None else None

    def clear_migrating(self, vertex_id: Any, epoch: int) -> None:
        """The handoff cut at ``epoch`` completed for this vertex (a
        newer round's entry, if any, stays)."""
        entry = self._migrating.get(vertex_id)
        if entry is not None and entry[0] <= epoch:
            del self._migrating[vertex_id]

    def clear_migrating_epoch(self, epoch: int) -> None:
        """Drop every in-flight entry cut at or before ``epoch``."""
        stale = [vertex_id for vertex_id, entry in self._migrating.items()
                 if entry[0] <= epoch]
        for vertex_id in stale:
            del self._migrating[vertex_id]

    def migrating_count(self) -> int:
        return len(self._migrating)

    def override_count(self) -> int:
        return len(self._overrides)

    def assignments(self, vertex_ids: list[Any]) -> dict[str, list[Any]]:
        """Group vertex ids by owning processor."""
        grouped: dict[str, list[Any]] = {name: [] for name in self.processors}
        for vertex_id in vertex_ids:
            grouped[self.owner(vertex_id)].append(vertex_id)
        return grouped
