"""Unit tests for algorithm pieces: losses, schedules, oracles, routers."""

import copy

import numpy as np
import pytest

from repro.algorithms import (Adadelta, Adagrad, BoldDriver, HingeLoss,
                              Instance, InstanceRouter, LogisticLoss,
                              StaticRate, reference_components,
                              reference_kmeans, reference_pagerank,
                              reference_sssp)
from repro.algorithms.graph_common import EdgeStreamRouter
from repro.algorithms.sgd import PARAM, SGDProgram, sampler_id
from repro.core.messages import MAIN_LOOP
from repro.core.vertex import VertexContext, VertexState
from repro.streams.model import ADD_EDGE, ADD_INSTANCE, StreamTuple


class TestLosses:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.true_w = np.array([1.0, -2.0, 0.5])
        self.xs = rng.normal(size=(200, 3))
        self.ys = np.sign(self.xs @ self.true_w)

    @pytest.mark.parametrize("loss", [HingeLoss(1e-3), LogisticLoss(1e-4)])
    def test_gradient_descent_reduces_objective(self, loss):
        w = np.zeros(3)
        start = loss.objective(w, self.xs, self.ys)
        for _ in range(200):
            w = w - 0.1 * loss.gradient(w, self.xs, self.ys)
        assert loss.objective(w, self.xs, self.ys) < start * 0.5

    @pytest.mark.parametrize("loss", [HingeLoss(1e-3), LogisticLoss(1e-4)])
    def test_gradient_matches_finite_differences(self, loss):
        w = np.array([0.3, -0.2, 0.1])
        grad = loss.gradient(w, self.xs, self.ys)
        eps = 1e-6
        for coord in range(3):
            bump = np.zeros(3)
            bump[coord] = eps
            numeric = (loss.objective(w + bump, self.xs, self.ys)
                       - loss.objective(w - bump, self.xs, self.ys)) / (
                2 * eps)
            assert grad[coord] == pytest.approx(numeric, abs=1e-3)

    @pytest.mark.parametrize("loss", [HingeLoss(1e-3), LogisticLoss(1e-4)])
    def test_fused_pass_equals_separate_calls(self, loss):
        w = np.array([0.3, -0.2, 0.1])
        gradient, objective = loss.gradient_and_objective(w, self.xs,
                                                          self.ys)
        assert np.array_equal(gradient, loss.gradient(w, self.xs, self.ys))
        assert objective == loss.objective(w, self.xs, self.ys)

    def test_separable_data_reaches_low_error(self):
        loss = LogisticLoss(1e-4)
        w = np.zeros(3)
        for _ in range(500):
            w = w - 0.5 * loss.gradient(w, self.xs, self.ys)
        predictions = np.sign(self.xs @ w)
        assert (predictions == self.ys).mean() > 0.97


class TestSchedules:
    def test_static_rate_step(self):
        schedule = StaticRate(0.5)
        step = schedule.step(np.array([2.0]))
        assert step == pytest.approx([-1.0])
        assert schedule.rate == 0.5

    def test_static_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            StaticRate(0.0)

    def test_bold_driver_shrinks_on_increase(self):
        schedule = BoldDriver(1.0)
        schedule.observe(10.0)
        schedule.observe(12.0)  # objective grew
        assert schedule.rate == pytest.approx(0.9)

    def test_bold_driver_grows_when_too_slow(self):
        schedule = BoldDriver(1.0)
        schedule.observe(10.0)
        schedule.observe(9.999)  # < 1% improvement
        assert schedule.rate == pytest.approx(1.1)

    def test_bold_driver_holds_on_good_progress(self):
        schedule = BoldDriver(1.0)
        schedule.observe(10.0)
        schedule.observe(5.0)  # 50% improvement
        assert schedule.rate == pytest.approx(1.0)

    def test_bold_driver_respects_bounds(self):
        schedule = BoldDriver(1.0, min_rate=0.95)
        for objective in range(1, 12):  # strictly growing objective
            schedule.observe(float(objective))
        assert schedule.rate == pytest.approx(0.95)

    def test_adagrad_rates_decay(self):
        schedule = Adagrad(1.0)
        g = np.array([1.0])
        first = abs(schedule.step(g)[0])
        second = abs(schedule.step(g)[0])
        third = abs(schedule.step(g)[0])
        assert first > second > third

    def test_adadelta_steps_bounded(self):
        schedule = Adadelta()
        g = np.array([5.0])
        steps = [abs(schedule.step(g)[0]) for _ in range(20)]
        assert all(step < 1.0 for step in steps)

    @pytest.mark.parametrize("factory", [
        lambda: StaticRate(0.1), lambda: BoldDriver(0.5),
        lambda: Adagrad(0.5), Adadelta], ids=["static", "bold", "adagrad",
                                              "adadelta"])
    def test_snapshot_unchanged_by_later_steps(self, factory):
        """Param snapshots copy the schedule shallowly; the DescentSchedule
        contract (rebind state arrays, never write into them) keeps the
        copy independent of the live schedule's later steps."""
        program = SGDProgram(HingeLoss(), 2, 1, factory)
        ctx = VertexContext(VertexState(PARAM), MAIN_LOOP, 0)
        program.init(ctx)
        # One step first, so the adaptive schedules hold state arrays.
        program.gather(ctx, sampler_id(0), (np.array([1.0, -1.0]), 2.0, 4,
                                            None))
        snapshot = program.snapshot_value(ctx.value)
        before = copy.deepcopy(vars(snapshot.schedule))
        for step in range(10):
            program.gather(ctx, sampler_id(0), (
                np.array([0.5, 2.0 - step]), 1.0 + step % 3, 4, 1.5))
        after = vars(snapshot.schedule)
        assert after.keys() == before.keys()
        for key, value in before.items():
            assert np.array_equal(after[key], value), key


class TestOracles:
    def test_reference_sssp_weighted(self):
        edges = [("s", "a", 4.0), ("s", "b", 1.0), ("b", "a", 2.0)]
        dist = reference_sssp(edges, "s")
        assert dist == {"s": 0.0, "b": 1.0, "a": 3.0}

    def test_reference_sssp_unknown_source(self):
        dist = reference_sssp([("a", "b")], "zzz")
        assert dist["zzz"] == 0.0

    def test_reference_pagerank_sums_near_n(self):
        edges = [(0, 1), (1, 2), (2, 0), (1, 0)]
        ranks = reference_pagerank(edges)
        assert sum(ranks.values()) == pytest.approx(3.0, rel=0.05)

    def test_reference_pagerank_ordering(self):
        # Everything points at vertex 0.
        edges = [(1, 0), (2, 0), (3, 0)]
        ranks = reference_pagerank(edges)
        assert ranks[0] > ranks[1]

    def test_reference_components(self):
        edges = [(1, 2), (2, 3), (10, 11)]
        labels = reference_components(edges)
        assert labels[3] == 1 and labels[11] == 10

    def test_reference_kmeans_two_blobs(self):
        points = [(-5.0, 0.0), (-5.2, 0.1), (5.0, 0.0), (5.1, -0.1)]
        centroids = reference_kmeans(points, [(-1.0, 0.0), (1.0, 0.0)])
        assert centroids[0][0] == pytest.approx(-5.1, abs=0.1)
        assert centroids[1][0] == pytest.approx(5.05, abs=0.1)


class TestRouters:
    def test_edge_router_directed(self):
        router = EdgeStreamRouter()
        routed = list(router.route(
            StreamTuple(0.0, ADD_EDGE, ("u", "v"))))
        assert len(routed) == 1
        assert routed[0][0] == "u"

    def test_edge_router_undirected(self):
        router = EdgeStreamRouter(undirected=True)
        routed = list(router.route(
            StreamTuple(0.0, ADD_EDGE, ("u", "v"))))
        assert {vertex for vertex, _d in routed} == {"u", "v"}

    def test_edge_router_negative_weight_is_removal(self):
        from repro.streams.model import REMOVE_EDGE

        router = EdgeStreamRouter()
        routed = list(router.route(
            StreamTuple(0.0, ADD_EDGE, ("u", "v"), weight=-1)))
        assert routed[0][1].kind == REMOVE_EDGE

    def test_instance_router_round_robin_and_seed(self):
        router = InstanceRouter(2)
        first = list(router.route(StreamTuple(0.0, ADD_INSTANCE,
                                              Instance((1.0,), 1))))
        # First tuple also seeds the param vertex.
        assert first[0][0] == PARAM
        assert first[1][0] == sampler_id(0)
        second = list(router.route(StreamTuple(0.0, ADD_INSTANCE,
                                               Instance((1.0,), 1))))
        assert second[0][0] == sampler_id(1)

    def test_instance_router_validates(self):
        with pytest.raises(ValueError):
            InstanceRouter(0)
