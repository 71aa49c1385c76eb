"""Unit tests for PartitionScheme epochs, the migration planner's scoring,
and the store's delta-handoff write."""

import pytest

from repro.core import TornadoConfig
from repro.core.migration import MigrationPlanner
from repro.core.partition import PartitionScheme, _stable_hash
from repro.errors import StorageError
from repro.storage import VersionedStore


class TestPartitionEpochs:
    def test_batch_reassign_bumps_epoch_once(self):
        scheme = PartitionScheme(["p0", "p1", "p2"])
        epoch = scheme.reassign_batch(
            [(v, "p1") for v in range(10)])
        assert epoch == 1
        assert scheme.epoch == 1
        assert all(scheme.owner(v) == "p1" for v in range(10))

    def test_single_reassign_bumps_epoch_once(self):
        scheme = PartitionScheme(["p0", "p1"])
        scheme.reassign("a", "p0")
        scheme.reassign("b", "p1")
        assert scheme.epoch == 2

    def test_empty_batch_is_epoch_neutral(self):
        scheme = PartitionScheme(["p0", "p1"])
        assert scheme.reassign_batch([]) == 0
        assert scheme.epoch == 0

    def test_batch_validates_before_applying(self):
        scheme = PartitionScheme(["p0", "p1"])
        with pytest.raises(ValueError):
            scheme.reassign_batch([("a", "p1"), ("b", "nope")])
        # Atomic: the valid half must not have been applied.
        assert scheme.epoch == 0
        assert scheme.owner("a") == scheme.hash_home("a")

    def test_override_evicted_at_hash_home(self):
        scheme = PartitionScheme([f"p{i}" for i in range(4)])
        vertices = list(range(50))
        scheme.reassign_batch([(v, "p0") for v in vertices])
        assert scheme.override_count() == sum(
            1 for v in vertices if scheme.hash_home(v) != "p0")
        # Sending every vertex home empties the override table.
        scheme.reassign_batch(
            [(v, scheme.hash_home(v)) for v in vertices])
        assert scheme.override_count() == 0
        assert scheme.epoch == 2

    def test_owner_stable_across_processor_list_order(self):
        names = [f"p{i}" for i in range(5)]
        forward = PartitionScheme(names)
        backward = PartitionScheme(list(reversed(names)))
        for vertex in range(200):
            assert forward.owner(vertex) == backward.owner(vertex)
        assert forward.hash_home("x") == backward.hash_home("x")

    def test_cached_home_agrees_with_the_hash(self):
        """The per-vertex home cache returns what hashing the ring gives,
        for every id type, before and after a round trip through an
        override."""
        names = [f"p{i}" for i in range(3)]
        ring = sorted(names)
        scheme = PartitionScheme(names)
        vertices = [7, 12345, "a", "vertex-9", (1, 2), ("u", 3)]

        def hashed(vertex):
            return ring[_stable_hash(vertex) % len(ring)]

        for vertex in vertices:
            assert scheme.hash_home(vertex) == hashed(vertex)
            assert scheme.hash_home(vertex) == hashed(vertex)  # cached
            assert scheme.owner(vertex) == hashed(vertex)
        away = [(v, next(p for p in ring if p != hashed(v)))
                for v in vertices]
        scheme.reassign_batch(away)
        for vertex, target in away:
            assert scheme.owner(vertex) == target
            assert scheme.hash_home(vertex) == hashed(vertex)
        scheme.reassign_batch([(v, hashed(v)) for v in vertices])
        assert scheme.override_count() == 0
        for vertex in vertices:
            assert scheme.owner(vertex) == hashed(vertex)
            assert scheme.hash_home(vertex) == hashed(vertex)


class TestPutIfNewer:
    def test_writes_fresh_key(self):
        store = VersionedStore()
        assert store.put_if_newer("main", "v", 3, "a")
        assert store.get("main", "v") == "a"

    def test_skips_when_chain_covers_iteration(self):
        store = VersionedStore()
        store.put("main", "v", 5, "newer")
        assert not store.put_if_newer("main", "v", 5, "stale")
        assert not store.put_if_newer("main", "v", 4, "stale")
        assert store.get("main", "v") == "newer"
        assert store.put_if_newer("main", "v", 6, "newest")
        assert store.get("main", "v") == "newest"

    def test_rejects_negative_iteration(self):
        store = VersionedStore()
        with pytest.raises(StorageError):
            store.put_if_newer("main", "v", -1, "x")


def make_planner(**overrides):
    overrides.setdefault("rebalance_factor", 1.5)
    overrides.setdefault("rebalance_min_gap", 0.01)
    overrides.setdefault("migration_max_batch", 4)
    return MigrationPlanner(TornadoConfig(**overrides))


def feed(planner, processor, rates, load=()):
    """Feed a sequence of (now, cumulative_busy) observations."""
    for now, busy in rates:
        planner.observe(processor, busy, now, load)


class TestMigrationPlanner:
    def test_no_plan_without_full_observation(self):
        planner = make_planner()
        feed(planner, "p0", [(0.0, 0.0), (1.0, 1.0)],
             load=(("v", 10),))
        assert planner.plan(["p0", "p1"], lambda v: "p0") == ()

    def test_no_plan_when_balanced(self):
        planner = make_planner()
        for name in ("p0", "p1"):
            feed(planner, name, [(0.0, 0.0), (1.0, 0.5), (2.0, 1.0)],
                 load=(("v" + name, 10),))
        assert planner.plan(["p0", "p1"], lambda v: "p0") == ()

    def test_skew_produces_batched_moves(self):
        planner = make_planner()
        feed(planner, "p0", [(0.0, 0.0), (1.0, 0.9), (2.0, 1.8)],
             load=(("a", 30), ("b", 20), ("c", 10)))
        feed(planner, "p1", [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
        feed(planner, "p2", [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
        moves = planner.plan(["p0", "p1", "p2"], lambda v: "p0")
        assert len(moves) > 1  # a batch, not one hot vertex
        assert all(source == "p0" for _v, source, _t in moves)
        assert {target for _v, _s, target in moves} <= {"p1", "p2"}
        # The heaviest vertex moves first.
        assert moves[0][0] == "a"

    def test_batch_capped(self):
        planner = make_planner(migration_max_batch=2)
        load = tuple((f"v{i}", 10) for i in range(8))
        feed(planner, "p0", [(0.0, 0.0), (1.0, 0.9), (2.0, 1.8)],
             load=load)
        feed(planner, "p1", [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
        moves = planner.plan(["p0", "p1"], lambda v: "p0")
        assert len(moves) <= 2

    def test_stale_samples_skipped(self):
        """Vertices whose ownership already changed are not re-moved."""
        planner = make_planner()
        feed(planner, "p0", [(0.0, 0.0), (1.0, 0.9), (2.0, 1.8)],
             load=(("a", 10), ("b", 10)))
        feed(planner, "p1", [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
        moves = planner.plan(["p0", "p1"],
                             lambda v: "p1" if v == "a" else "p0")
        assert all(vertex != "a" for vertex, _s, _t in moves)

    def test_forget_invalidates_rates(self):
        planner = make_planner()
        feed(planner, "p0", [(0.0, 0.0), (1.0, 0.9)],
             load=(("a", 10),))
        feed(planner, "p1", [(0.0, 0.0), (1.0, 0.0)])
        assert planner.imbalanced(["p0", "p1"])
        planner.forget("p1")
        assert not planner.imbalanced(["p0", "p1"])
        assert planner.plan(["p0", "p1"], lambda v: "p0") == ()

    def test_move_only_when_beneficial(self):
        """A vertex carrying the whole source load is not shifted onto an
        equally busy target (that would just invert the imbalance)."""
        planner = make_planner()
        feed(planner, "p0", [(0.0, 0.0), (1.0, 0.9), (2.0, 1.8)],
             load=(("a", 100),))
        feed(planner, "p1", [(0.0, 0.0), (1.0, 0.5), (2.0, 1.0)])
        feed(planner, "p2", [(0.0, 0.0), (1.0, 0.0), (2.0, 0.1)])
        moves = planner.plan(["p0", "p1", "p2"], lambda v: "p0")
        # Moving "a" (the whole of p0's load) to p2 leaves p2 hotter than
        # p0 was; the benefit check must reject it.
        assert moves == ()
