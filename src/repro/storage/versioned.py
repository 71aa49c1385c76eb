"""Versioned vertex-state store.

Tornado materialises every committed vertex version in external storage
(paper §5.1: PostgreSQL / LMDB).  The store keeps, per ``(loop, key)``, the
chain of ``(iteration, value)`` versions.  Branch loops snapshot the main
loop by reading, for each vertex, the most recent version whose iteration is
not greater than the fork iteration (paper §5.2).

One layout, plain Python objects: a per-loop key index (loop-scoped
walks touch only that loop's chains), one chain per key that absorbs
writes into a pending delta log consolidated by periodic *rebases*
(arrangement-style: the sorted base arrays are rebuilt only every
``rebase_interval`` writes or before a read), and an LRU snapshot cache
keyed ``(loop, bound)``, invalidated by per-loop generation counters —
repeated branch-fork reads of an unchanged loop stop re-walking full
chains.

Three write forms: single ``put`` calls, batched ``put_many``, and
``put_segment`` for write-once namespaces — a stopped branch loop's
final state.  A segment is one caller-built dict ``key -> (iteration,
value)`` kept *by reference* beside the chains: no per-key chain, so the
values it shares with other segments and with the main loop's
published-version cache stay shared.  Every read path sees segment
entries exactly as if they had been ``put_many``'d in dict order — keys
with chains first, then segments in write order — and a later ordinary
write to the loop folds its segments into chains first, so that
equivalence holds whatever follows.

Cost-model accounting is split: :attr:`reads` counts *protocol* reads
(vertex seeding, fork snapshots, query results); runtime housekeeping
walks (GC, merge write-back, crash recovery, migration re-release) go
through the ``peek``/``internal`` variants and land in
:attr:`internal_reads` instead, so :attr:`reads` reflects only what a
real deployment would bill the database for.
"""

from __future__ import annotations

import bisect
from collections import OrderedDict
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Iterable

from repro.errors import StorageError

#: Default pending-log length that triggers a rebase on write; per-store
#: override via ``rebase_interval``.
REBASE_INTERVAL = 16
#: Default number of distinct ``(loop, bound)`` snapshot views kept by
#: the LRU cache; override via ``snapshot_cache_size``.
SNAPSHOT_CACHE_SIZE = 32


@dataclass
class _Chain:
    """Version chain for one key: parallel arrays sorted by iteration,
    plus a pending log of unconsolidated writes."""

    iterations: list[int] = field(default_factory=list)
    values: list[Any] = field(default_factory=list)
    #: Recent writes not yet merged into the sorted base; readers must
    #: :meth:`rebase` first.
    pending: list[tuple[int, Any]] = field(default_factory=list)

    def rebase(self) -> None:
        """Fold the pending log into the sorted base (last write per
        iteration wins).  The common case — appends in ascending order
        past the base — extends the arrays without re-sorting."""
        pending = self.pending
        if not pending:
            return
        self.pending = []
        previous = self.iterations[-1] if self.iterations else -1
        ascending = True
        for iteration, _value in pending:
            if iteration <= previous:
                ascending = False
                break
            previous = iteration
        if ascending:
            for iteration, value in pending:
                self.iterations.append(iteration)
                self.values.append(value)
            return
        merged = dict(zip(self.iterations, self.values))
        merged.update(pending)
        items = sorted(merged.items())
        self.iterations = [iteration for iteration, _value in items]
        self.values = [value for _iteration, value in items]

    def max_iteration(self) -> int | None:
        """Newest iteration across base *and* pending log — the
        ``put_if_newer`` guard must see unconsolidated writes too."""
        best = self.iterations[-1] if self.iterations else None
        for iteration, _value in self.pending:
            if best is None or iteration > best:
                best = iteration
        return best

    def latest(self, max_iteration: int | None = None) -> tuple[int, Any] | None:
        if not self.iterations:
            return None
        if max_iteration is None:
            return self.iterations[-1], self.values[-1]
        index = bisect.bisect_right(self.iterations, max_iteration) - 1
        if index < 0:
            return None
        return self.iterations[index], self.values[index]

    def truncate_before(self, iteration: int) -> int:
        """Drop versions strictly older than the newest version that is
        ≤ ``iteration`` (that one must stay readable).  Returns #dropped."""
        keep_from = bisect.bisect_right(self.iterations, iteration) - 1
        if keep_from <= 0:
            return 0
        del self.iterations[:keep_from]
        del self.values[:keep_from]
        return keep_from


class VersionedStore:
    """Multi-loop, multi-version key-value store.

    Keys are namespaced by ``loop`` (the main loop and each branch loop get
    their own namespace).  All values are stored by reference; callers own
    immutability of committed values.
    """

    def __init__(self, rebase_interval: int | None = None,
                 snapshot_cache_size: int | None = None) -> None:
        self.rebase_interval = (REBASE_INTERVAL if rebase_interval is None
                                else rebase_interval)
        self.snapshot_cache_size = (SNAPSHOT_CACHE_SIZE
                                    if snapshot_cache_size is None
                                    else snapshot_cache_size)
        if self.rebase_interval < 1:
            raise StorageError(
                f"rebase_interval must be >= 1: {self.rebase_interval}")
        if self.snapshot_cache_size < 1:
            raise StorageError(f"snapshot_cache_size must be >= 1: "
                               f"{self.snapshot_cache_size}")
        self.puts = 0
        #: Protocol reads — what the cost model bills (see module doc).
        self.reads = 0
        #: Housekeeping reads (GC, merge, recovery, migration walks).
        self.internal_reads = 0
        self.rebases = 0
        self.cache_hits = 0
        self.cache_misses = 0
        # Chains: loop -> key -> chain, plus the snapshot cache
        # ((loop, bound) -> (generation, view)) and per-loop generations.
        self._loops: dict[str, dict[Any, _Chain]] = {}
        self._snap_cache: OrderedDict[tuple[str, int | None],
                                      tuple[int, dict[Any, Any]]] \
            = OrderedDict()
        self._generation: dict[str, int] = {}
        # Write-once segments per loop, in write order (see module doc):
        # key -> (iteration, value), no key in two of them or in the
        # chains.
        self._segments: dict[str, list[dict[Any, tuple[int, Any]]]] = {}

    # ----------------------------------------------------------- internals
    def _find(self, loop: str, key: Any) -> _Chain | None:
        chains = self._loops.get(loop)
        return None if chains is None else chains.get(key)

    def _append(self, loop: str, key: Any, iteration: int,
                value: Any) -> None:
        """Log one write on a chain (the caller bumps the generation and
        counts the put)."""
        chains = self._loops.setdefault(loop, {})
        chain = chains.get(key)
        if chain is None:
            chain = chains[key] = _Chain()
        chain.pending.append((iteration, value))
        if len(chain.pending) >= self.rebase_interval:
            self._settle(chain)

    def _settle(self, chain: _Chain) -> None:
        if chain.pending:
            chain.rebase()
            self.rebases += 1

    def _bump(self, loop: str) -> None:
        self._generation[loop] = self._generation.get(loop, 0) + 1

    def _segmented(self, loop: str | None = None) -> int:
        """Entries in a loop's segments (in every loop's for None)."""
        lists = (self._segments.values() if loop is None
                 else [self._segments.get(loop, ())])
        return sum(len(segment) for segments in lists
                   for segment in segments)

    def _thaw(self, loop: str) -> None:
        """Fold a loop's segments into chains before an ordinary write,
        in the order ``put_many`` would have written them, so the keys
        and versions a later write joins read as if no segment had ever
        been taken.  Counted as puts when the segment was."""
        for segment in self._segments.pop(loop):
            for key, (iteration, value) in segment.items():
                self._append(loop, key, iteration, value)

    def _latest(self, loop: str, key: Any,
                max_iteration: int | None) -> tuple[int, Any] | None:
        segments = self._segments.get(loop)
        if segments is not None:
            for segment in segments:
                found = segment.get(key)
                if found is not None:
                    if max_iteration is None or found[0] <= max_iteration:
                        return found
                    return None
        chain = self._find(loop, key)
        if chain is None:
            return None
        self._settle(chain)
        return chain.latest(max_iteration)

    # -------------------------------------------------------------- writes
    def put(self, loop: str, key: Any, iteration: int, value: Any) -> None:
        """Record ``value`` as the version of ``key`` at ``iteration``."""
        if iteration < 0:
            raise StorageError(f"negative iteration: {iteration}")
        if loop in self._segments:
            self._thaw(loop)
        self.puts += 1
        self._append(loop, key, iteration, value)
        self._bump(loop)

    def put_many(self, loop: str,
                 items: Iterable[tuple[Any, int, Any]]) -> int:
        """Batched write: ``(key, iteration, value)`` triples.  Returns
        the number written.  All or nothing: every iteration is checked
        before the first write.  One generation bump covers the whole
        batch (one snapshot-cache invalidation, not N)."""
        items = list(items)
        for _key, iteration, _value in items:
            if iteration < 0:
                raise StorageError(f"negative iteration: {iteration}")
        if items and loop in self._segments:
            self._thaw(loop)
        for key, iteration, value in items:
            self._append(loop, key, iteration, value)
        self.puts += len(items)
        if items:
            self._bump(loop)
        return len(items)

    def put_segment(self, loop: str,
                    segment: dict[Any, tuple[int, Any]]) -> int:
        """Write-once block: ``segment`` maps key -> ``(iteration,
        value)``, one version per key, for a namespace that takes no
        ordinary writes afterwards (a stopped branch loop).  The store
        keeps the dict itself, so the caller hands it over and never
        touches it again.  Keys the loop already has are dropped from it
        first: the earlier write wins.  Returns the number of versions
        written (see the module doc for how reads see them)."""
        if segment and min(map(itemgetter(0), segment.values())) < 0:
            raise StorageError("negative iteration in segment")
        segments = self._segments.get(loop, [])
        for earlier in (self._loops.get(loop), *segments):
            if earlier:
                for key in segment.keys() & earlier.keys():
                    del segment[key]
        if not segment:
            return 0
        if not segments:
            # The loop's place among the loops (export order) is where
            # put_many would have put it.
            self._loops.setdefault(loop, {})
            self._segments[loop] = segments
        segments.append(segment)
        self.puts += len(segment)
        self._bump(loop)
        return len(segment)

    def put_if_newer(self, loop: str, key: Any, iteration: int,
                     value: Any) -> bool:
        """Write only when no version at ≥ ``iteration`` exists yet — the
        delta-handoff write used by live migration (the source flushes its
        freshest state once; redundant re-releases after recovery must not
        roll a newer committed version back).  Returns whether it wrote."""
        if iteration < 0:
            raise StorageError(f"negative iteration: {iteration}")
        if loop in self._segments:
            self._thaw(loop)
        chain = self._find(loop, key)
        newest = None if chain is None else chain.max_iteration()
        if newest is not None and newest >= iteration:
            return False
        self.put(loop, key, iteration, value)
        return True

    # --------------------------------------------------------------- reads
    def get(self, loop: str, key: Any,
            max_iteration: int | None = None) -> Any:
        """Most recent value of ``key`` with iteration ≤ ``max_iteration``
        (or the newest overall).  Raises :class:`StorageError` if absent."""
        found = self.get_version(loop, key, max_iteration)
        if found is None:
            raise StorageError(f"no version of {key!r} in loop {loop!r}"
                               f" at iteration <= {max_iteration}")
        return found[1]

    def get_version(self, loop: str, key: Any,
                    max_iteration: int | None = None
                    ) -> tuple[int, Any] | None:
        self.reads += 1
        return self._latest(loop, key, max_iteration)

    def peek_version(self, loop: str, key: Any,
                     max_iteration: int | None = None
                     ) -> tuple[int, Any] | None:
        """Uncharged read for runtime housekeeping — same result as
        :meth:`get_version`, billed to :attr:`internal_reads`."""
        self.internal_reads += 1
        return self._latest(loop, key, max_iteration)

    def get_many(self, loop: str, keys: Iterable[Any],
                 max_iteration: int | None = None,
                 internal: bool = False) -> dict[Any, tuple[int, Any]]:
        """Batched point reads: key -> (iteration, value) for every key
        with a version ≤ the bound.  ``internal`` routes the charge to
        :attr:`internal_reads` (housekeeping walks)."""
        found = {}
        walked = 0
        for key in keys:
            walked += 1
            version = self._latest(loop, key, max_iteration)
            if version is not None:
                found[key] = version
        if internal:
            self.internal_reads += walked
        else:
            self.reads += walked
        return found

    def keys(self, loop: str) -> list[Any]:
        """Keys of a loop, as a snapshot list (callers may mutate the store
        while walking it)."""
        keys = list(self._loops.get(loop, ()))
        for segment in self._segments.get(loop, ()):
            keys.extend(segment)
        return keys

    def contains(self, loop: str, key: Any) -> bool:
        """Whether ``key`` has a version in ``loop`` — one dict probe per
        key index and segment, no chain settle."""
        if key in self._loops.get(loop, ()):
            return True
        for segment in self._segments.get(loop, ()):
            if key in segment:
                return True
        return False

    def snapshot(self, loop: str, max_iteration: int | None = None,
                 internal: bool = False) -> dict[Any, Any]:
        """Consistent view of a loop: per key, latest version ≤ bound.
        This is exactly the branch-loop fork read (paper §5.2).  Repeated
        reads of an unchanged loop are served from the LRU cache.
        ``internal`` walks (e.g. in-memory result merging) are billed to
        :attr:`internal_reads`."""
        walked = len(self._loops.get(loop, ())) + self._segmented(loop)
        cache_key = (loop, max_iteration)
        generation = self._generation.get(loop, 0)
        entry = self._snap_cache.get(cache_key)
        if entry is not None and entry[0] == generation:
            self._snap_cache.move_to_end(cache_key)
            self.cache_hits += 1
            view = dict(entry[1])
        else:
            self.cache_misses += 1
            view = {}
            for key, chain in self._loops.get(loop, {}).items():
                self._settle(chain)
                found = chain.latest(max_iteration)
                if found is not None:
                    view[key] = found[1]
            for segment in self._segments.get(loop, ()):
                if max_iteration is None:
                    view.update(zip(segment,
                                    map(itemgetter(1), segment.values())))
                else:
                    view.update((key, value) for key, (iteration, value)
                                in segment.items()
                                if iteration <= max_iteration)
            self._snap_cache[cache_key] = (generation, dict(view))
            self._snap_cache.move_to_end(cache_key)
            while len(self._snap_cache) > self.snapshot_cache_size:
                self._snap_cache.popitem(last=False)
        if internal:
            self.internal_reads += walked
        else:
            self.reads += walked
        return view

    # ------------------------------------------------------------ lifecycle
    def drop_loop(self, loop: str) -> int:
        """Delete every version of a loop (branch-loop teardown)."""
        chains = self._loops.pop(loop, None)
        count = len(chains) if chains is not None else 0
        for segment in self._segments.pop(loop, ()):
            count += len(segment)
        self._generation.pop(loop, None)
        for cache_key in [k for k in self._snap_cache if k[0] == loop]:
            del self._snap_cache[cache_key]
        return count

    def truncate_before(self, loop: str, iteration: int) -> int:
        """Garbage-collect versions no snapshot at ≥ ``iteration`` can see."""
        dropped = 0
        for chain in self._loops.get(loop, {}).values():
            self._settle(chain)
            dropped += chain.truncate_before(iteration)
        if dropped:
            self._bump(loop)
        return dropped

    def export_versions(self) -> list[tuple[str, Any, int, Any]]:
        """Every ``(loop, key, iteration, value)`` version in the store —
        the hydration feed for live-backend worker recovery (the worker's
        local store died with its process; the master's authoritative
        copy re-seeds it).  A housekeeping walk: counts as internal."""
        out: list[tuple[str, Any, int, Any]] = []
        for loop, chains in self._loops.items():
            for key, chain in chains.items():
                self._settle(chain)
                out.extend((loop, key, iteration, value)
                           for iteration, value
                           in zip(chain.iterations, chain.values))
            for segment in self._segments.get(loop, ()):
                out.extend((loop, key, iteration, value)
                           for key, (iteration, value) in segment.items())
        self.internal_reads += len(out)
        return out

    def approx_bytes(self) -> int:
        """Deterministic footprint estimate of the store.

        A flat ~96 bytes per version (key ref + iteration + value ref +
        chain overhead), segment entries included, counting pending-log
        entries without forcing a rebase, so probing the footprint leaves
        the store's rebase cadence untouched.  Values are held by
        reference, so this intentionally ignores value payload sizes —
        the estimate is stable across runs, which is what a footprint
        comparison needs more than physical precision.
        """
        return 96 * (self._segmented()
                     + sum(len(chain.iterations) + len(chain.pending)
                           for chains in self._loops.values()
                           for chain in chains.values()))

    def version_count(self, loop: str | None = None) -> int:
        total = self._segmented(loop)
        if loop is None:
            loops = list(self._loops.values())
        else:
            loops = [self._loops.get(loop, {})]
        for chains in loops:
            for chain in chains.values():
                self._settle(chain)
                total += len(chain.iterations)
        return total
