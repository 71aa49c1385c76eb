"""Program-level unit tests: drive each vertex program's gather/scatter
directly through a VertexContext, no simulator involved."""

import math

import numpy as np
import pytest

from repro.algorithms import (KMeansProgram, PageRankProgram, SSSPProgram,
                              StaticRate)
from repro.algorithms.kmeans import SEED_CENTROID, centroid_id, shard_id
from repro.algorithms.sgd import (PARAM, HingeLoss, Instance, SGDProgram,
                                  sampler_id)
from repro.core.messages import MAIN_LOOP, branch_name
from repro.core.vertex import Delta, VertexContext, VertexState
from repro.streams.model import ADD_EDGE, ADD_INSTANCE, ADD_POINT, \
    REMOVE_EDGE


def make_vertex(program, vertex_id, loop=MAIN_LOOP, iteration=0):
    state = VertexState(vertex_id)
    ctx = VertexContext(state, loop, iteration)
    program.init(ctx)
    return ctx, state


class TestSSSPProgram:
    def test_source_initialised_to_zero(self):
        program = SSSPProgram("s")
        ctx, _ = make_vertex(program, "s")
        assert ctx.value.distance == 0.0
        other, _ = make_vertex(program, "x")
        assert math.isinf(other.value.distance)

    def test_add_edge_registers_target_and_weight(self):
        program = SSSPProgram("s")
        ctx, _ = make_vertex(program, "s")
        changed = program.gather(ctx, None,
                                 Delta(ADD_EDGE, ("s", "t", 2.5)))
        assert changed  # the source owes its distance to the new target
        assert "t" in ctx.targets
        assert ctx.value.edge_weights["t"] == 2.5

    def test_add_edge_on_unreachable_vertex_is_quiet(self):
        program = SSSPProgram("s")
        ctx, _ = make_vertex(program, "x")
        changed = program.gather(ctx, None, Delta(ADD_EDGE, ("x", "y", 1)))
        assert not changed  # nothing useful to announce yet

    def test_offers_keep_minimum(self):
        program = SSSPProgram("s")
        ctx, _ = make_vertex(program, "x")
        assert program.gather(ctx, "a", 5.0)
        assert ctx.value.distance == 5.0
        assert program.gather(ctx, "b", 3.0)
        assert ctx.value.distance == 3.0
        assert not program.gather(ctx, "c", 4.0)  # not an improvement

    def test_retracted_offer_recomputes(self):
        program = SSSPProgram("s")
        ctx, _ = make_vertex(program, "x")
        program.gather(ctx, "a", 3.0)
        program.gather(ctx, "b", 7.0)
        assert program.gather(ctx, "a", math.inf)
        assert ctx.value.distance == 7.0

    def test_scatter_emits_distance_plus_weight(self):
        program = SSSPProgram("s")
        ctx, _ = make_vertex(program, "s")
        program.gather(ctx, None, Delta(ADD_EDGE, ("s", "t", 2.0)))
        program.scatter(ctx)
        assert ctx.take_emitted() == {"t": 2.0}

    def test_scatter_retracts_removed_targets(self):
        program = SSSPProgram("s")
        ctx, _ = make_vertex(program, "s")
        program.gather(ctx, None, Delta(ADD_EDGE, ("s", "t", 1.0)))
        program.gather(ctx, None, Delta(REMOVE_EDGE, ("s", "t", 1.0)))
        program.scatter(ctx)
        emitted = ctx.take_emitted()
        assert math.isinf(emitted["t"])

    def test_unreachable_vertex_scatters_retractions(self):
        program = SSSPProgram("s")
        ctx, _ = make_vertex(program, "x")
        program.gather(ctx, None, Delta(ADD_EDGE, ("x", "y", 1.0)))
        program.gather(ctx, "a", 4.0)   # reachable for a while
        program.gather(ctx, "a", math.inf)  # now unreachable again
        program.scatter(ctx)
        assert math.isinf(ctx.take_emitted()["y"])

    def test_max_distance_caps_count_to_infinity(self):
        program = SSSPProgram("s", max_distance=10.0)
        ctx, _ = make_vertex(program, "x")
        assert program.gather(ctx, "a", 9.0)
        assert ctx.value.distance == 9.0
        assert program.gather(ctx, "a", 11.0)
        assert math.isinf(ctx.value.distance)

    def test_snapshot_value_is_independent(self):
        program = SSSPProgram("s")
        ctx, state = make_vertex(program, "x")
        program.gather(ctx, "a", 3.0)
        snapshot = program.snapshot_value(state.value)
        program.gather(ctx, "a", 1.0)
        assert snapshot.distance == 3.0


class TestPageRankProgram:
    def test_contribution_slots_idempotent(self):
        program = PageRankProgram(tolerance=1e-9)
        ctx, _ = make_vertex(program, "x")
        assert program.gather(ctx, "a", 0.5)
        rank_after_first = ctx.value.rank
        assert not program.gather(ctx, "a", 0.5)  # duplicate delivery
        assert ctx.value.rank == rank_after_first

    def test_rank_formula(self):
        program = PageRankProgram(damping=0.85, tolerance=1e-9)
        ctx, _ = make_vertex(program, "x")
        program.gather(ctx, "a", 1.0)
        assert ctx.value.rank == pytest.approx(0.15 + 0.85 * 1.0)

    def test_zero_contribution_removes_slot(self):
        program = PageRankProgram(tolerance=1e-9)
        ctx, _ = make_vertex(program, "x")
        program.gather(ctx, "a", 1.0)
        assert program.gather(ctx, "a", 0.0)
        assert ctx.value.rank == pytest.approx(0.15)

    def test_scatter_divides_rank_among_targets(self):
        program = PageRankProgram(tolerance=1e-9)
        ctx, _ = make_vertex(program, "x")
        program.gather(ctx, None, Delta(ADD_EDGE, ("x", "a", 1)))
        program.gather(ctx, None, Delta(ADD_EDGE, ("x", "b", 1)))
        program.scatter(ctx)
        emitted = ctx.take_emitted()
        assert emitted["a"] == emitted["b"] == pytest.approx(
            ctx.value.rank / 2)

    def test_tolerance_suppresses_tiny_changes(self):
        program = PageRankProgram(tolerance=0.5)
        ctx, _ = make_vertex(program, "x")
        assert not program.gather(ctx, "a", 0.1)  # change below tolerance

    def test_bad_damping_rejected(self):
        with pytest.raises(ValueError):
            PageRankProgram(damping=1.5)


class TestKMeansProgram:
    def make_programs(self):
        return KMeansProgram(k=2, n_shards=2, dim=2, tolerance=1e-6,
                             input_batch=2)

    def test_bipartite_targets(self):
        program = self.make_programs()
        centroid, _ = make_vertex(program, centroid_id(0))
        shard, _ = make_vertex(program, shard_id(1))
        assert centroid.targets == frozenset(
            {shard_id(0), shard_id(1)})
        assert shard.targets == frozenset(
            {centroid_id(0), centroid_id(1)})

    def test_seed_positions_centroid(self):
        program = self.make_programs()
        ctx, _ = make_vertex(program, centroid_id(0))
        assert program.gather(ctx, None,
                              Delta(SEED_CENTROID, (1.0, 2.0)))
        assert np.allclose(ctx.value.position, [1.0, 2.0])

    def test_shard_batches_inputs(self):
        program = self.make_programs()
        ctx, _ = make_vertex(program, shard_id(0))
        ctx.value.centroids[centroid_id(0)] = np.zeros(2)
        assert not program.gather(ctx, None,
                                  Delta(ADD_POINT, (0.0, 0.0)))
        assert program.gather(ctx, None, Delta(ADD_POINT, (1.0, 1.0)))

    def test_shard_assigns_to_nearest(self):
        program = self.make_programs()
        ctx, _ = make_vertex(program, shard_id(0))
        program.gather(ctx, None, Delta(ADD_POINT, (-1.0, 0.0)))
        program.gather(ctx, None, Delta(ADD_POINT, (5.0, 0.0)))
        program.gather(ctx, centroid_id(0), np.array([0.0, 0.0]))
        program.gather(ctx, centroid_id(1), np.array([4.0, 0.0]))
        program.scatter(ctx)
        emitted = ctx.take_emitted()
        sum0, count0 = emitted[centroid_id(0)]
        sum1, count1 = emitted[centroid_id(1)]
        assert count0 == 1 and count1 == 1
        assert np.allclose(sum0, [-1.0, 0.0])
        assert np.allclose(sum1, [5.0, 0.0])

    def test_centroid_mean_of_partials(self):
        program = self.make_programs()
        ctx, _ = make_vertex(program, centroid_id(0))
        program.gather(ctx, shard_id(0), (np.array([2.0, 0.0]), 1))
        program.gather(ctx, shard_id(1), (np.array([0.0, 4.0]), 1))
        assert np.allclose(ctx.value.position, [1.0, 2.0])

    def test_rescan_cost_scales_with_points(self):
        program = self.make_programs()
        ctx, _ = make_vertex(program, shard_id(0))
        for index in range(10):
            program.gather(ctx, None,
                           Delta(ADD_POINT, (float(index), 0.0)))
        small = program.gather_cost(ctx, centroid_id(0), np.zeros(2))
        for index in range(90):
            program.gather(ctx, None,
                           Delta(ADD_POINT, (float(index), 1.0)))
        large = program.gather_cost(ctx, centroid_id(0), np.zeros(2))
        assert large > small


class TestSGDProgram:
    def make_program(self, **kwargs):
        kwargs.setdefault("batch_size", 4)
        kwargs.setdefault("reservoir_capacity", 16)
        kwargs.setdefault("input_batch", 2)
        kwargs.setdefault("tolerance", 1e-6)
        return SGDProgram(HingeLoss(1e-3), 2, 2,
                          lambda: StaticRate(0.1), **kwargs)

    def instance(self, x, y=1):
        return Instance(tuple(x), y)

    def test_param_targets_all_samplers(self):
        program = self.make_program()
        ctx, _ = make_vertex(program, PARAM)
        assert ctx.targets == frozenset({sampler_id(0), sampler_id(1)})

    def test_seed_wakes_param(self):
        program = self.make_program()
        ctx, _ = make_vertex(program, PARAM)
        assert program.gather(ctx, None, Delta("seed", None))

    def test_gradient_applies_step(self):
        program = self.make_program()
        ctx, _ = make_vertex(program, PARAM)
        changed = program.gather(ctx, sampler_id(0),
                                 (np.array([1.0, 0.0]), 0.5, 4, None))
        assert changed
        assert np.allclose(ctx.value.weights, [-0.1, 0.0])

    def test_tiny_step_reports_unchanged(self):
        program = self.make_program(tolerance=1.0)
        ctx, _ = make_vertex(program, PARAM)
        assert not program.gather(ctx, sampler_id(0),
                                  (np.array([1e-4, 0.0]), 0.5, 4, None))

    def test_empty_gradient_batch_ignored(self):
        program = self.make_program()
        ctx, _ = make_vertex(program, PARAM)
        assert not program.gather(ctx, sampler_id(0),
                                  (np.zeros(2), 0.0, 0, None))

    def test_sampler_batches_inputs(self):
        program = self.make_program()
        ctx, _ = make_vertex(program, sampler_id(0))
        ctx.value.weights = np.zeros(2)
        first = program.gather(ctx, None, Delta(
            ADD_INSTANCE, self.instance([1.0, 0.0])))
        second = program.gather(ctx, None, Delta(
            ADD_INSTANCE, self.instance([0.0, 1.0])))
        assert not first and second  # input_batch = 2

    def test_sampler_without_weights_stays_quiet(self):
        program = self.make_program()
        ctx, _ = make_vertex(program, sampler_id(0))
        for _ in range(4):
            program.gather(ctx, None, Delta(
                ADD_INSTANCE, self.instance([1.0, 0.0])))
        program.scatter(ctx)
        assert ctx.take_emitted() == {}

    def test_branch_loop_uses_full_reservoir(self):
        program = self.make_program()
        main_ctx, state = make_vertex(program, sampler_id(0))
        for index in range(10):
            program.gather(main_ctx, None, Delta(
                ADD_INSTANCE, self.instance([1.0, float(index)])))
        program.gather(main_ctx, PARAM, np.zeros(2))
        branch_ctx = VertexContext(state, branch_name(1), 0)
        program.scatter(branch_ctx)
        _grad, _obj, count, _before = branch_ctx.take_emitted()[PARAM]
        assert count == 10  # full reservoir, not a mini-batch

    def test_param_always_activates_on_fork(self):
        program = self.make_program()
        ctx, _ = make_vertex(program, PARAM)
        assert program.activate_on_fork(ctx, recently_updated=False)

    def test_snapshot_preserves_sampler_class(self):
        program = self.make_program(use_reservoir=False)
        ctx, state = make_vertex(program, sampler_id(0))
        snapshot = program.snapshot_value(state.value)
        from repro.streams.sampling import RecencyBiasedBuffer

        assert isinstance(snapshot.reservoir, RecencyBiasedBuffer)
