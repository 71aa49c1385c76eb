"""Columnar (numpy-slab) layout for the versioned vertex-state store.

The object layouts in :mod:`repro.storage.versioned` keep one Python
``_Chain`` per ``(loop, key)``: a million-vertex graph means a million
small lists, a million dict entries, and Python-level bisects on every
read.  This module stores a whole loop as *column slabs* instead
(arrangement-style, as REX keeps delta-based state):

* a sorted **base**: one ``int64`` composite column ``(slot << 32) |
  iteration`` plus a parallel object column of values, with a CSR-like
  ``offsets`` array marking each key's segment;
* a **pending log** of unconsolidated writes (whole numpy blocks from
  slab puts, plus a scalar tail), folded into the base by *batched
  rebases* — one ``lexsort`` + last-write-wins dedup over the whole
  loop, amortised geometrically instead of per-chain.

Every read answers from the sorted base via ``searchsorted`` on the
composite column, so ``get_many`` / ``snapshot`` / ``truncate_before``
are single vectorized passes rather than per-key Python walks.

Semantics are **identical** to the delta layout (same results, same
key/insertion ordering of returned dicts, same last-write-per-iteration
wins) — :class:`repro.storage.versioned.VersionedStore` treats this as a
drop-in chain backend, which is what makes the columnar/scalar digest
oracle possible.  Only the *housekeeping counters* (rebase counts)
differ: rebases are per-loop slab folds here, per-chain consolidations
there.

This is the only module under ``repro.storage`` allowed to import numpy
at module top level; ``VersionedStore`` imports it lazily so the object
layouts stay importable without the columnar path active.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from repro.errors import StorageError

#: Iterations must fit the low 32 bits of the composite column.
MAX_ITERATION = (1 << 32) - 1
#: Keys (slots) must fit the high bits (int64 composite stays positive).
MAX_SLOTS = 1 << 31


class _ColumnarLoop:
    """One loop's slabs: sorted base + pending block log."""

    __slots__ = ("slot_of", "key_of", "dense", "offsets", "comp",
                 "values", "newest", "pending", "pending_rows",
                 "tail_slots", "tail_iters", "tail_values")

    def __init__(self) -> None:
        self.slot_of: dict[Any, int] = {}
        self.key_of: list[Any] = []
        #: True while every key created so far is the integer equal to
        #: its slot — then slab puts skip the per-key dict translation.
        self.dense = True
        self.offsets = np.zeros(1, dtype=np.int64)
        self.comp = np.empty(0, dtype=np.int64)
        self.values = np.empty(0, dtype=object)
        #: Per-slot newest iteration over base *and* pending (put_if_newer
        #: must see unconsolidated writes); -1 = no version yet.
        self.newest = np.empty(0, dtype=np.int64)
        #: Arrival-ordered pending blocks: (slots, iters, values) arrays.
        self.pending: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.pending_rows = 0
        # Scalar-put tail, folded into a block lazily (keeps single puts
        # O(1) without a one-row array per write).
        self.tail_slots: list[int] = []
        self.tail_iters: list[int] = []
        self.tail_values: list[Any] = []

    # ------------------------------------------------------------- slots
    def _grow_newest(self, n_slots: int) -> None:
        if n_slots > len(self.newest):
            grown = np.full(max(n_slots, 2 * len(self.newest), 16), -1,
                            dtype=np.int64)
            grown[:len(self.newest)] = self.newest
            self.newest = grown

    def _slot(self, key: Any) -> int:
        slot = self.slot_of.get(key)
        if slot is None:
            slot = len(self.key_of)
            if slot >= MAX_SLOTS:
                raise StorageError("columnar layout: too many keys")
            self.slot_of[key] = slot
            self.key_of.append(key)
            self._grow_newest(slot + 1)
            if self.dense and not (isinstance(key, int) and key == slot):
                self.dense = False
        return slot

    def _slots_array(self, keys: Any) -> np.ndarray:
        """Translate a key batch to slots, creating missing ones.

        Integer batches against a dense loop (key == slot so far) skip
        the per-key dict translation entirely.  Everything else goes
        key by key through the *original* Python objects — never through
        a numpy round-trip, which would swap e.g. ``str`` keys for
        ``np.str_`` and poison downstream dict reprs/digests."""
        arr = keys if isinstance(keys, np.ndarray) else None
        if arr is None:
            try:
                arr = np.asarray(keys)
            except Exception:
                arr = np.empty(0)
        numeric = arr.ndim == 1 and arr.dtype.kind in "iu"
        if numeric and self.dense and arr.size and int(arr.min()) >= 0:
            top = int(arr.max())
            n = len(self.key_of)
            if top >= n:
                if top + 1 > MAX_SLOTS:
                    raise StorageError("columnar layout: too many keys")
                # Dense extension: keys *are* slots; materialise the
                # range wholesale (dict.update runs in C).
                fresh = range(n, top + 1)
                self.slot_of.update(zip(fresh, fresh))
                self.key_of.extend(fresh)
                self._grow_newest(top + 1)
            return arr.astype(np.int64, copy=False)
        if numeric:
            seq: Any = arr.tolist()  # plain Python ints
        elif isinstance(keys, np.ndarray):
            seq = keys.tolist()
        else:
            seq = list(keys)
        return np.fromiter((self._slot(key) for key in seq),
                           dtype=np.int64, count=len(seq))

    # ------------------------------------------------------------ writes
    def put(self, iteration: int, key: Any, value: Any) -> None:
        if iteration > MAX_ITERATION:
            raise StorageError(f"iteration too large for columnar "
                               f"layout: {iteration}")
        slot = self._slot(key)
        self.tail_slots.append(slot)
        self.tail_iters.append(iteration)
        self.tail_values.append(value)
        self.pending_rows += 1
        if iteration > self.newest[slot]:
            self.newest[slot] = iteration

    def _push_tail(self) -> None:
        if not self.tail_slots:
            return
        vals = np.empty(len(self.tail_values), dtype=object)
        vals[:] = self.tail_values
        self.pending.append((np.asarray(self.tail_slots, dtype=np.int64),
                             np.asarray(self.tail_iters, dtype=np.int64),
                             vals))
        self.tail_slots, self.tail_iters, self.tail_values = [], [], []

    def put_columns(self, keys: Any, iterations: Any,
                    values: Any) -> int:
        """Append one column slab (vectorized ``put_many``)."""
        slots = self._slots_array(keys)
        count = int(slots.size)
        if count == 0:
            return 0
        if np.isscalar(iterations) or getattr(iterations, "ndim", 1) == 0:
            iters = np.full(count, int(iterations), dtype=np.int64)
        else:
            iters = np.asarray(iterations, dtype=np.int64)
            if iters.size != count:
                raise StorageError("keys/iterations length mismatch")
        if iters.size and (int(iters.min()) < 0
                           or int(iters.max()) > MAX_ITERATION):
            raise StorageError("iteration out of columnar range")
        if len(values) != count:
            raise StorageError("keys/values length mismatch")
        vals = np.empty(count, dtype=object)
        if isinstance(values, np.ndarray):
            # .tolist() unboxes numeric scalars to plain Python values.
            vals[:] = values if values.dtype == object else values.tolist()
        else:
            # Element-wise: sequence-typed values (tuples, lists) must
            # land as single cells, not broadcast as rows.
            for index, value in enumerate(values):
                vals[index] = value
        self._push_tail()  # keep arrival order across tail and blocks
        self.pending.append((slots, iters, vals))
        self.pending_rows += count
        np.maximum.at(self.newest, slots, iters)
        return count

    # ----------------------------------------------------------- rebases
    def should_rebase(self, interval: int) -> bool:
        """Batched-rebase policy: fold once the log reaches the
        configured interval, grown geometrically with the base so big
        loops amortise the sort."""
        return self.pending_rows >= max(interval, len(self.comp) >> 3)

    def rebase(self) -> bool:
        """Fold the pending log into the sorted base: one lexsort over
        (composite, arrival), keeping the last write per
        ``(key, iteration)``.  Returns whether anything folded."""
        self._push_tail()
        if not self.pending:
            return False
        comps = [self.comp]
        vals = [self.values]
        for slots, iters, values in self.pending:
            comps.append((slots << np.int64(32)) | iters)
            vals.append(values)
        all_comp = np.concatenate(comps)
        all_vals = np.concatenate(vals)
        self.pending = []
        self.pending_rows = 0
        # Base rows come first, then blocks in arrival order, so a
        # stable sort on the composite alone keeps last-write-wins.
        order = np.argsort(all_comp, kind="stable")
        comp_sorted = all_comp[order]
        keep = np.empty(comp_sorted.size, dtype=bool)
        if comp_sorted.size:
            keep[:-1] = comp_sorted[1:] != comp_sorted[:-1]
            keep[-1] = True
        self.comp = comp_sorted[keep]
        self.values = all_vals[order][keep]
        self._rebuild_offsets()
        return True

    def _rebuild_offsets(self) -> None:
        slots = self.comp >> np.int64(32)
        self.offsets = np.searchsorted(
            slots, np.arange(len(self.key_of) + 1, dtype=np.int64))

    # ------------------------------------------------------------- reads
    def _target(self, slot: int, bound: int | None) -> int:
        cap = MAX_ITERATION if bound is None else min(bound, MAX_ITERATION)
        return (slot << 32) | cap

    def latest(self, key: Any,
               bound: int | None) -> tuple[int, Any] | None:
        """Newest ``(iteration, value)`` of ``key`` with iteration ≤
        bound.  Caller must have settled the loop."""
        slot = self.slot_of.get(key)
        if slot is None or (bound is not None and bound < 0):
            return None
        lo = self.offsets[slot] if slot + 1 < len(self.offsets) else 0
        pos = int(np.searchsorted(self.comp, self._target(slot, bound),
                                  side="right"))
        if pos <= lo:
            return None
        return (int(self.comp[pos - 1] & MAX_ITERATION),
                self.values[pos - 1])

    def snapshot_rows(self, bound: int | None
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized whole-loop view: ``(slots, rows)`` where ``rows``
        indexes the base columns — one searchsorted for every key."""
        n = len(self.key_of)
        if n == 0 or (bound is not None and bound < 0):
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        slots = np.arange(n, dtype=np.int64)
        cap = MAX_ITERATION if bound is None else min(bound, MAX_ITERATION)
        targets = (slots << np.int64(32)) | np.int64(cap)
        pos = np.searchsorted(self.comp, targets, side="right")
        valid = pos > self.offsets[:-1]
        return slots[valid], pos[valid] - 1

    def truncate_before(self, iteration: int) -> int:
        """Vectorized GC: per key, drop rows strictly older than the
        newest row ≤ ``iteration`` (that one stays readable)."""
        if iteration < 0 or self.comp.size == 0:
            return 0
        n = len(self.key_of)
        slots = np.arange(n, dtype=np.int64)
        cap = min(iteration, MAX_ITERATION)
        pos = np.searchsorted(self.comp,
                              (slots << np.int64(32)) | np.int64(cap),
                              side="right")
        starts = self.offsets[:-1]
        keep_start = np.maximum(starts, pos - 1)
        dropped = int((keep_start - starts).sum())
        if dropped == 0:
            return 0
        counts = self.offsets[1:] - keep_start
        total = int(counts.sum())
        before = np.concatenate(([0], np.cumsum(counts)[:-1]))
        rows = (np.arange(total, dtype=np.int64)
                + np.repeat(keep_start - before, counts))
        self.comp = self.comp[rows]
        self.values = self.values[rows]
        self._rebuild_offsets()
        return dropped

    def version_count(self) -> int:
        return int(self.comp.size)

    def nbytes(self) -> int:
        """Slab footprint: base + pending blocks + the scalar tail (the
        object value columns count pointer width only, matching the flat
        per-version estimate of the object layouts)."""
        total = (self.comp.nbytes + self.values.nbytes
                 + self.offsets.nbytes + self.newest.nbytes)
        for slots, iters, values in self.pending:
            total += slots.nbytes + iters.nbytes + values.nbytes
        total += 24 * len(self.tail_slots)
        return int(total)

    def max_iteration(self, key: Any) -> int | None:
        slot = self.slot_of.get(key)
        if slot is None:
            return None
        newest = int(self.newest[slot])
        return newest if newest >= 0 else None


class ColumnarStore:
    """Multi-loop slab store behind :class:`VersionedStore`.

    ``stats`` is the owning store; rebases are counted on its
    ``rebases`` attribute so the shared health gauges keep working.
    """

    def __init__(self, stats: Any, rebase_interval: int) -> None:
        self.stats = stats
        self.rebase_interval = rebase_interval
        self._loops: dict[str, _ColumnarLoop] = {}

    # ----------------------------------------------------------- helpers
    def obtain(self, loop: str) -> _ColumnarLoop:
        state = self._loops.get(loop)
        if state is None:
            state = self._loops[loop] = _ColumnarLoop()
        return state

    def _settle(self, state: _ColumnarLoop) -> None:
        if state.pending_rows and state.rebase():
            self.stats.rebases += 1

    def _maybe_rebase(self, state: _ColumnarLoop) -> None:
        if state.should_rebase(self.rebase_interval) and state.rebase():
            self.stats.rebases += 1

    def nbytes(self) -> int:
        return sum(state.nbytes() for state in self._loops.values())

    # ------------------------------------------------------------ writes
    def put(self, loop: str, key: Any, iteration: int, value: Any) -> None:
        state = self.obtain(loop)
        state.put(iteration, key, value)
        self._maybe_rebase(state)

    def put_columns(self, loop: str, keys: Any, iterations: Any,
                    values: Any) -> int:
        state = self.obtain(loop)
        count = state.put_columns(keys, iterations, values)
        self._maybe_rebase(state)
        return count

    def max_iteration(self, loop: str, key: Any) -> int | None:
        state = self._loops.get(loop)
        return None if state is None else state.max_iteration(key)

    # ------------------------------------------------------------- reads
    def latest(self, loop: str, key: Any,
               bound: int | None) -> tuple[int, Any] | None:
        state = self._loops.get(loop)
        if state is None:
            return None
        self._settle(state)
        return state.latest(key, bound)

    def latest_many(self, loop: str, keys: Iterable[Any],
                    bound: int | None
                    ) -> tuple[int, dict[Any, tuple[int, Any]]]:
        """Batched point reads; returns ``(walked, found)`` with
        ``found`` in input-key order (matching the delta layout)."""
        state = self._loops.get(loop)
        found: dict[Any, tuple[int, Any]] = {}
        walked = 0
        if state is None:
            for _key in keys:
                walked += 1
            return walked, found
        self._settle(state)
        for key in keys:
            walked += 1
            version = state.latest(key, bound)
            if version is not None:
                found[key] = version
        return walked, found

    def key_count(self, loop: str) -> int:
        state = self._loops.get(loop)
        return 0 if state is None else len(state.key_of)

    def key_index(self, loop: str) -> dict[Any, int]:
        """The loop's key -> slot dict (read-only for callers)."""
        state = self._loops.get(loop)
        return {} if state is None else state.slot_of

    def snapshot_view(self, loop: str, bound: int | None) -> dict[Any, Any]:
        """Whole-loop view in key-creation (= first-put) order — the
        same dict ordering the delta layout's insertion-ordered chain
        index produces."""
        state = self._loops.get(loop)
        if state is None:
            return {}
        self._settle(state)
        slots, rows = state.snapshot_rows(bound)
        key_of = state.key_of
        values = state.values
        return {key_of[slot]: values[row]
                for slot, row in zip(slots.tolist(), rows.tolist())}

    def snapshot_columns(self, loop: str, bound: int | None = None
                         ) -> tuple[np.ndarray, np.ndarray]:
        """Array-native snapshot for the bulk engine: ``(keys, values)``
        without building a Python dict (keys in creation order)."""
        state = self._loops.get(loop)
        if state is None:
            empty = np.empty(0, dtype=np.int64)
            return empty, np.empty(0, dtype=object)
        self._settle(state)
        slots, rows = state.snapshot_rows(bound)
        if state.dense:
            keys = slots
        else:
            keys = np.empty(slots.size, dtype=object)
            keys[:] = [state.key_of[slot] for slot in slots.tolist()]
        return keys, state.values[rows]

    # --------------------------------------------------------- lifecycle
    def drop_loop(self, loop: str) -> int:
        state = self._loops.pop(loop, None)
        return 0 if state is None else len(state.key_of)

    def truncate_before(self, loop: str, iteration: int) -> int:
        state = self._loops.get(loop)
        if state is None:
            return 0
        self._settle(state)
        return state.truncate_before(iteration)

    def version_count(self, loop: str | None) -> int:
        if loop is None:
            states = list(self._loops.values())
        else:
            state = self._loops.get(loop)
            states = [] if state is None else [state]
        total = 0
        for state in states:
            self._settle(state)
            total += state.version_count()
        return total

    def loops(self) -> list[str]:
        """Loop names in creation order."""
        return list(self._loops)

    def export_loop(self, loop: str) -> list[tuple[str, Any, int, Any]]:
        """Every ``(loop, key, iteration, value)`` version of one loop."""
        state = self._loops[loop]
        self._settle(state)
        key_of = state.key_of
        slots = (state.comp >> np.int64(32)).tolist()
        iters = (state.comp & np.int64(MAX_ITERATION)).tolist()
        return [(loop, key_of[slot], iteration, value)
                for slot, iteration, value
                in zip(slots, iters, state.values)]
