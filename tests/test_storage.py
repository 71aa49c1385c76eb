"""Unit + property tests for the versioned store, backends, checkpoints."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.simulator import SimulatedDisk, Simulator
from repro.storage import (CheckpointManifest, DiskBackend, InMemoryBackend,
                           VersionedStore)
from repro.storage.versioned import REBASE_INTERVAL


@pytest.fixture(params=["delta"])
def store():
    """A fresh store: per-key chains that absorb writes into a pending
    delta log (hence the id), indexed per loop, with the snapshot
    cache."""
    return VersionedStore()


class TestVersionedStore:
    def test_put_get_roundtrip(self, store):
        store.put("main", "v1", 3, "value")
        assert store.get("main", "v1") == "value"
        assert store.get_version("main", "v1") == (3, "value")

    def test_snapshot_reads_latest_at_or_below_bound(self, store):
        for iteration, value in [(1, "a"), (5, "b"), (9, "c")]:
            store.put("main", "k", iteration, value)
        assert store.get("main", "k", max_iteration=5) == "b"
        assert store.get("main", "k", max_iteration=6) == "b"
        assert store.get("main", "k", max_iteration=100) == "c"
        assert store.get_version("main", "k", max_iteration=0) is None

    def test_missing_key_raises(self, store):
        with pytest.raises(StorageError):
            store.get("main", "ghost")

    def test_same_iteration_overwrites(self, store):
        store.put("main", "k", 2, "old")
        store.put("main", "k", 2, "new")
        assert store.get("main", "k") == "new"
        assert store.version_count("main") == 1

    def test_out_of_order_puts(self, store):
        store.put("main", "k", 9, "late")
        store.put("main", "k", 2, "early")
        assert store.get("main", "k", max_iteration=3) == "early"
        assert store.get("main", "k") == "late"

    def test_negative_iteration_rejected(self, store):
        with pytest.raises(StorageError):
            store.put("main", "k", -1, "v")

    def test_put_many_with_a_negative_iteration_writes_nothing(self, store):
        store.put("main", "a", 1, 1.0)
        assert store.snapshot("main") == {"a": 1.0}
        with pytest.raises(StorageError):
            store.put_many("main", [("b", 2, 2.0), ("c", -1, 3.0)])
        # All-or-nothing: no half-written batch behind a cached snapshot.
        assert store.snapshot("main") == {"a": 1.0}
        assert store.get_version("main", "b") is None
        assert store.version_count("main") == 1
        assert store.puts == 1

    def test_loops_are_isolated(self, store):
        store.put("main", "k", 1, "main-value")
        store.put("branch-1", "k", 1, "branch-value")
        assert store.get("main", "k") == "main-value"
        assert store.get("branch-1", "k") == "branch-value"
        assert store.drop_loop("branch-1") == 1
        with pytest.raises(StorageError):
            store.get("branch-1", "k")

    def test_snapshot_whole_loop(self, store):
        store.put("main", "a", 1, 10)
        store.put("main", "a", 4, 40)
        store.put("main", "b", 2, 20)
        view = store.snapshot("main", max_iteration=3)
        assert view == {"a": 10, "b": 20}

    def test_snapshot_skips_keys_born_after_bound(self, store):
        store.put("main", "young", 8, 1)
        assert store.snapshot("main", max_iteration=3) == {}

    def test_truncate_keeps_snapshot_readable(self, store):
        for iteration in (1, 3, 5, 7):
            store.put("main", "k", iteration, iteration * 10)
        dropped = store.truncate_before("main", 5)
        assert dropped == 2  # versions 1 and 3 go; 5 stays readable
        assert store.get("main", "k", max_iteration=6) == 50
        assert store.get("main", "k") == 70

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 100)),
                    min_size=1, max_size=40))
    def test_property_latest_below_bound(self, puts):
        """get(max_iteration=b) always returns the value with the largest
        iteration ≤ b, regardless of put order."""
        store = VersionedStore()
        reference = {}
        for iteration, value in puts:
            store.put("main", "k", iteration, value)
            reference[iteration] = value
        for bound in range(22):
            eligible = [i for i in reference if i <= bound]
            found = store.get_version("main", "k", max_iteration=bound)
            if eligible:
                assert found == (max(eligible), reference[max(eligible)])
            else:
                assert found is None


class TestIndexedStore:
    """Per-loop index, batched I/O accounting and the generation-checked
    snapshot cache."""

    def test_put_many_get_many_roundtrip_and_accounting(self, store):
        written = store.put_many("main", [("a", 1, 10), ("b", 2, 20),
                                          ("a", 4, 40)])
        assert written == 3
        assert store.puts == 3
        found = store.get_many("main", ["a", "b", "ghost"],
                               max_iteration=3)
        assert found == {"a": (1, 10), "b": (2, 20)}
        assert store.reads == 3           # one charge per key walked
        store.get_many("main", ["a"], internal=True)
        assert store.reads == 3
        assert store.internal_reads == 1

    def test_peek_bills_internal_reads(self, store):
        store.put("main", "k", 1, "v")
        assert store.peek_version("main", "k") == (1, "v")
        assert (store.reads, store.internal_reads) == (0, 1)

    def test_snapshot_reads_split_protocol_vs_internal(self, store):
        store.put("main", "a", 1, 10)
        store.put("main", "b", 2, 20)
        store.snapshot("main")
        assert (store.reads, store.internal_reads) == (2, 0)
        store.put("main", "c", 3, 30)
        store.snapshot("main", internal=True)
        assert (store.reads, store.internal_reads) == (2, 3)

    def test_snapshot_cache_hits_until_a_put_invalidates(self, store):
        store.put("main", "a", 1, 10)
        first = store.snapshot("main", max_iteration=5)
        second = store.snapshot("main", max_iteration=5)
        assert first == second == {"a": 10}
        assert (store.cache_misses, store.cache_hits) == (1, 1)
        second["a"] = 999                 # caller views are copies
        assert store.snapshot("main", max_iteration=5) == {"a": 10}
        store.put("main", "a", 7, 70)     # generation bump
        assert store.snapshot("main", max_iteration=5) == {"a": 10}
        assert store.cache_misses == 2

    def test_put_many_bumps_generation_once(self, store):
        store.put_many("main", [("a", 1, 10)])
        store.snapshot("main")
        store.put_many("main", [("b", 2, 20), ("c", 3, 30)])
        assert store.snapshot("main") == {"a": 10, "b": 20, "c": 30}
        assert store.cache_misses == 2

    def test_put_if_newer_sees_pending_writes(self, store):
        store.put("main", "k", 5, "newer")     # still in the pending log
        assert not store.put_if_newer("main", "k", 4, "stale")
        assert store.put_if_newer("main", "k", 6, "newest")
        assert store.get("main", "k") == "newest"

    def test_drop_loop_clears_index_and_cache(self, store):
        store.put("branch-1", "k", 1, "v")
        store.put("main", "k", 1, "kept")
        store.snapshot("branch-1")
        assert store.drop_loop("branch-1") == 1
        assert store.keys("branch-1") == []
        assert store.snapshot("branch-1") == {}
        assert store.get("main", "k") == "kept"

    def test_truncate_invalidates_the_snapshot_cache(self, store):
        for iteration in (1, 3, 5):
            store.put("main", "k", iteration, iteration * 10)
        assert store.snapshot("main", max_iteration=2) == {"k": 10}
        assert store.truncate_before("main", 5) == 2
        # The GC invalidated the cached view: versions 10 and 30 are gone.
        assert store.snapshot("main", max_iteration=2) == {}
        assert store.snapshot("main") == {"k": 50}

    def test_version_count_per_loop_and_total(self, store):
        store.put("main", "a", 1, 10)
        store.put("main", "a", 2, 20)
        store.put("branch-1", "b", 1, 30)
        assert store.version_count("main") == 2
        assert store.version_count("branch-1") == 1
        assert store.version_count() == 3


_SEGMENT_KEYS = ["a", "b", "c", "d", "e"]
_TRIPLE = st.tuples(st.sampled_from(_SEGMENT_KEYS), st.integers(0, 9),
                    st.integers(0, 99))


def _assert_reads_agree(model: VersionedStore, store: VersionedStore,
                        bounds: list[int]) -> None:
    """Every read path, on every loop, answers alike on both stores —
    dict orders and read charges included."""
    probe = _SEGMENT_KEYS + ["ghost"]
    for loop in ("main", "branch"):
        assert store.keys(loop) == model.keys(loop)
        assert store.version_count(loop) == model.version_count(loop)
        for bound in [None, *bounds]:
            for _ in range(2):          # the second read is a cache hit
                assert list(store.snapshot(loop, bound).items()) \
                    == list(model.snapshot(loop, bound).items())
            assert list(store.get_many(loop, probe, bound).items()) \
                == list(model.get_many(loop, probe, bound).items())
            for key in probe:
                assert store.get_version(loop, key, bound) \
                    == model.get_version(loop, key, bound)
                assert store.peek_version(loop, key, bound) \
                    == model.peek_version(loop, key, bound)
        for key in probe:
            assert store.contains(loop, key) == (key in model.keys(loop))
    assert store.export_versions() == model.export_versions()
    assert store.version_count() == model.version_count()
    assert store.approx_bytes() == model.approx_bytes()
    assert (store.puts, store.reads, store.internal_reads,
            store.cache_hits, store.cache_misses) \
        == (model.puts, model.reads, model.internal_reads,
            model.cache_hits, model.cache_misses)


class TestSegments:
    """``put_segment`` against its specification: the same triples
    ``put_many``'d into a twin store, minus the keys the loop already
    has (the earlier write wins)."""

    @given(main=st.lists(_TRIPLE, max_size=6),
           chains=st.lists(_TRIPLE, max_size=6),
           segments=st.lists(st.lists(_TRIPLE, max_size=6), min_size=1,
                             max_size=3),
           main_first=st.booleans(),
           late=st.lists(_TRIPLE, max_size=3),
           bounds=st.lists(st.integers(-1, 10), max_size=3))
    def test_a_segment_reads_as_put_many(self, main, chains, segments,
                                         main_first, late, bounds):
        model, store = VersionedStore(), VersionedStore()
        if main_first:
            for twin in (model, store):
                twin.put_many("main", main)
        for twin in (model, store):
            twin.put_many("branch", chains)
        has = {key for key, _iteration, _value in chains}
        for triples in segments:
            segment = {key: (iteration, value)
                       for key, iteration, value in triples}
            fresh = [(key, iteration, value)
                     for key, (iteration, value) in segment.items()
                     if key not in has]
            has.update(segment)
            assert store.put_segment("branch", segment) \
                == model.put_many("branch", fresh) == len(fresh)
            _assert_reads_agree(model, store, bounds)
        if not main_first:
            for twin in (model, store):
                twin.put_many("main", main)
        _assert_reads_agree(model, store, bounds)
        # An ordinary write after the segments joins them as if they
        # had been put_many'd: same versions, same key order.
        for key, iteration, value in late:
            for twin in (model, store):
                twin.put("branch", key, iteration, value)
            _assert_reads_agree(model, store, bounds)
        for bound in bounds:
            assert store.truncate_before("branch", bound) \
                == model.truncate_before("branch", bound)
        _assert_reads_agree(model, store, bounds)
        assert store.drop_loop("branch") == model.drop_loop("branch")
        _assert_reads_agree(model, store, bounds)

    def test_the_store_keeps_the_segment_by_reference(self, store):
        entry = (3, ("value", frozenset()))
        store.put("branch", "a", 1, "committed")
        assert store.put_segment("branch", {"a": (2, "late"),
                                            "b": entry}) == 1
        assert store.get_version("branch", "b") is entry
        assert store.get_version("branch", "a") == (1, "committed")
        assert store.put_segment("branch", {"b": (4, "second")}) == 0
        assert store.snapshot("branch") == {"a": "committed",
                                            "b": entry[1]}

    def test_a_negative_iteration_writes_nothing(self, store):
        with pytest.raises(StorageError):
            store.put_segment("branch", {"a": (1, "v"), "b": (-1, "w")})
        assert store.keys("branch") == []
        assert store.puts == 0


class TestDeltaStore:
    """The per-chain pending-log rebase and the store's knobs."""

    def test_pending_log_rebases_on_interval_and_reads(self):
        store = VersionedStore()
        for iteration in range(REBASE_INTERVAL):
            store.put("main", "k", iteration, iteration)
        assert store.rebases == 1         # interval-triggered, ascending
        store.put("main", "k", 3, "rewrite")   # out-of-order pending
        assert store.get("main", "k", max_iteration=3) == "rewrite"
        assert store.rebases == 2         # read-triggered consolidation
        assert store.get("main", "k") == REBASE_INTERVAL - 1

    def test_custom_rebase_interval_changes_cadence(self):
        """The TornadoConfig-promoted knob really controls rebase
        cadence: interval 4 folds 16 ascending writes four times where
        the default interval folds once."""
        eager = VersionedStore(rebase_interval=4)
        for iteration in range(16):
            eager.put("main", "k", iteration, iteration)
        assert eager.rebases == 4
        default = VersionedStore()
        for iteration in range(16):
            default.put("main", "k", iteration, iteration)
        assert default.rebases == 1
        lazy = VersionedStore(rebase_interval=100)
        for iteration in range(16):
            lazy.put("main", "k", iteration, iteration)
        assert lazy.rebases == 0          # nothing folded until a read
        assert lazy.get("main", "k") == 15
        assert lazy.rebases == 1

    def test_custom_snapshot_cache_size_evicts_lru(self):
        store = VersionedStore(snapshot_cache_size=2)
        store.put("main", "k", 1, 10)
        for bound in (1, 2, 3):          # three views, cache holds two
            store.snapshot("main", max_iteration=bound)
        store.snapshot("main", max_iteration=1)   # evicted -> miss again
        assert store.cache_misses == 4
        store.snapshot("main", max_iteration=3)   # still cached -> hit
        assert store.cache_hits == 1

    def test_store_params_validated(self):
        with pytest.raises(StorageError):
            VersionedStore(rebase_interval=0)
        with pytest.raises(StorageError):
            VersionedStore(snapshot_cache_size=0)


_LOOP = st.sampled_from(["main", "branch"])
_BOUND = st.one_of(st.none(), st.integers(0, 10))
_MODEL_OPS = st.lists(st.one_of(
    st.tuples(st.sampled_from(["put", "put_if_newer"]), _LOOP, _TRIPLE),
    st.tuples(st.sampled_from(["put_many", "put_segment"]), _LOOP,
              st.lists(_TRIPLE, max_size=5)),
    st.tuples(st.just("get_version"), _LOOP,
              st.sampled_from(_SEGMENT_KEYS + ["ghost"]), _BOUND),
    st.tuples(st.just("snapshot"), _LOOP, _BOUND),
    st.tuples(st.just("truncate_before"), _LOOP, st.integers(0, 10)),
    st.tuples(st.just("drop_loop"), _LOOP),
), min_size=1, max_size=40)


class ReferenceStore:
    """The store's specification as plain dicts: ``{loop: {key:
    {iteration: value}}}``, loops and keys in first-write order."""

    def __init__(self) -> None:
        self.loops: dict = {}

    def put(self, loop, key, iteration, value) -> None:
        self.loops.setdefault(loop, {}).setdefault(key, {})[iteration] \
            = value

    def latest(self, loop, key, bound):
        """The newest version at an iteration ≤ ``bound``."""
        versions = self.loops.get(loop, {}).get(key, {})
        eligible = [i for i in versions if bound is None or i <= bound]
        if not eligible:
            return None
        return max(eligible), versions[max(eligible)]

    def put_if_newer(self, loop, key, iteration, value) -> bool:
        versions = self.loops.get(loop, {}).get(key, {})
        if versions and max(versions) >= iteration:
            return False
        self.put(loop, key, iteration, value)
        return True

    def put_segment(self, loop, segment) -> int:
        """One version per key the loop does not have yet."""
        fresh = [(key, iteration, value)
                 for key, (iteration, value) in segment.items()
                 if key not in self.loops.get(loop, {})]
        for triple in fresh:
            self.put(loop, *triple)
        return len(fresh)

    def snapshot(self, loop, bound):
        view = {}
        for key in self.loops.get(loop, {}):
            found = self.latest(loop, key, bound)
            if found is not None:
                view[key] = found[1]
        return view

    def truncate_before(self, loop, iteration) -> int:
        """Keep, per key, the newest version ≤ ``iteration`` and every
        newer one."""
        dropped = 0
        for key, versions in self.loops.get(loop, {}).items():
            found = self.latest(loop, key, iteration)
            for old in [i for i in versions if found and i < found[0]]:
                del versions[old]
                dropped += 1
        return dropped

    def drop_loop(self, loop) -> int:
        return len(self.loops.pop(loop, {}))

    def export_versions(self):
        return [(loop, key, iteration, versions[iteration])
                for loop, keys in self.loops.items()
                for key, versions in keys.items()
                for iteration in sorted(versions)]


class TestReferenceModel:
    """The store against :class:`ReferenceStore`, its independent
    oracle: any interleaving of writes (plain, batched, conditional,
    write-once segments), point reads, snapshots, GC and loop drops over
    two loops returns what the model returns."""

    @settings(max_examples=300, deadline=None)
    @given(_MODEL_OPS)
    def test_every_op_matches_the_reference_model(self, ops):
        store, model = VersionedStore(), ReferenceStore()
        for kind, loop, *args in ops:
            if kind == "put":
                store.put(loop, *args[0])
                model.put(loop, *args[0])
            elif kind == "put_if_newer":
                assert store.put_if_newer(loop, *args[0]) \
                    == model.put_if_newer(loop, *args[0])
            elif kind == "put_many":
                assert store.put_many(loop, args[0]) == len(args[0])
                for triple in args[0]:
                    model.put(loop, *triple)
            elif kind == "put_segment":
                segment = {key: (iteration, value)
                           for key, iteration, value in args[0]}
                assert store.put_segment(loop, dict(segment)) \
                    == model.put_segment(loop, segment)
            elif kind == "get_version":
                assert store.get_version(loop, *args) \
                    == model.latest(loop, *args)
            elif kind == "snapshot":
                assert list(store.snapshot(loop, args[0]).items()) \
                    == list(model.snapshot(loop, args[0]).items())
            elif kind == "truncate_before":
                assert store.truncate_before(loop, args[0]) \
                    == model.truncate_before(loop, args[0])
            else:
                assert store.drop_loop(loop) == model.drop_loop(loop)
            for key in _SEGMENT_KEYS:
                for bound in (None, 0, 3, 6, 9):
                    assert store.get_version(loop, key, bound) \
                        == model.latest(loop, key, bound)
        for loop in ("main", "branch"):
            assert store.keys(loop) == list(model.loops.get(loop, {}))
            assert store.version_count(loop) == sum(
                map(len, model.loops.get(loop, {}).values()))
        assert store.export_versions() == model.export_versions()


class TestBackends:
    def test_in_memory_flush_cost(self):
        sim = Simulator()
        backend = InMemoryBackend(sim, batch_latency=0.01, record_cost=0.0)
        done = []
        backend.flush(100, lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(0.01)]
        assert backend.flushes == 1
        assert backend.records_flushed == 100

    def test_disk_backend_charges_disk(self):
        sim = Simulator()
        disk = SimulatedDisk(sim, "d0", seek_cost=1.0, record_cost=0.1)
        backend = DiskBackend(disk)
        done = []
        backend.flush(10, lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(2.0)]
        assert backend.records_flushed == 10

    def test_disk_backend_read(self):
        sim = Simulator()
        disk = SimulatedDisk(sim, "d0", seek_cost=0.5, record_cost=0.0)
        backend = DiskBackend(disk)
        done = []
        backend.read(4, lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(0.5)]


class TestCheckpointManifest:
    def test_flush_frontier_monotone(self):
        manifest = CheckpointManifest()
        manifest.record_flush("main", "p0", 5)
        manifest.record_flush("main", "p0", 3)  # stale report ignored
        assert manifest.flushed[("main", "p0")] == 5

    def test_restart_iteration(self):
        manifest = CheckpointManifest()
        assert manifest.restart_iteration("main") == -1
        manifest.record_terminated("main", 7)
        manifest.record_terminated("main", 4)
        assert manifest.restart_iteration("main") == 7

    def test_restart_iteration_no_terminated_iteration(self):
        # A loop that never terminated an iteration (or was never seen at
        # all) restarts from scratch, even if flushes were recorded.
        manifest = CheckpointManifest()
        manifest.record_flush("main", "p0", 3)
        assert manifest.restart_iteration("main") == -1
        assert manifest.restart_iteration("branch-1") == -1

    def test_out_of_order_record_flush_keeps_max(self):
        manifest = CheckpointManifest()
        for iteration in (2, 7, 4, 7, 1):
            manifest.record_flush("main", "p0", iteration)
        assert manifest.flushed[("main", "p0")] == 7

    def test_planted_restart_skew_only_applies_after_termination(self):
        # The test-only mutation must not fire before any iteration has
        # terminated (there is nothing to skew), and must clamp at -1.
        manifest = CheckpointManifest(planted_restart_skew=1)
        assert manifest.restart_iteration("main") == -1
        manifest.record_terminated("main", 4)
        assert manifest.restart_iteration("main") == 5
        manifest.planted_restart_skew = -10
        assert manifest.restart_iteration("main") == -1

