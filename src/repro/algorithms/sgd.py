"""Distributed SGD on evolving instance streams (SVM and LR workloads).

Topology: one ``param`` vertex holds the weight vector; ``n_samplers``
sampler vertices hold reservoir samples of the instance stream (reservoir
sampling keeps the main loop's initial guesses valid under evolution —
paper §3.2).  Samplers gather the current weights and scatter gradients;
the param vertex applies them through a descent schedule and scatters the
new weights.

The approximation/exact split of the execution model (§3.3):

* **main loop** (``g``): samplers compute *mini-batch* gradients on a draw
  from the reservoir — cheap, keeps up with the stream;
* **branch loop** (``f``): samplers compute *full-reservoir* gradients, so
  the branch runs deterministic distributed gradient descent from the main
  loop's approximation until the steps fall below the tolerance.

A sampler keeps its reservoir's instances as rows of a ``(capacity, dim)``
slab (``reservoir.rows``), so a batch is an index into it rather than a
re-stacking of instances.  The slab is a cache of the live value only:
committed snapshots share the immutable instances and rebuild it on their
first scatter.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

from repro.core.vertex import Delta, VertexContext, VertexProgram
from repro.streams.model import ADD_INSTANCE, StreamTuple
from repro.streams.sampling import ReservoirSampler

PARAM = "param"


def sampler_id(index: int) -> tuple[str, int]:
    return ("sampler", index)


@dataclass(frozen=True)
class Instance:
    """One labelled training example; ``label`` in {-1, +1}."""

    features: tuple[float, ...]
    label: int

    def x(self) -> np.ndarray:
        return np.asarray(self.features, dtype=float)


class Loss:
    """Loss interface shared by the SVM and LR workloads."""

    def gradient(self, weights: np.ndarray, xs: np.ndarray,
                 ys: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def objective(self, weights: np.ndarray, xs: np.ndarray,
                  ys: np.ndarray) -> float:
        raise NotImplementedError

    def gradient_and_objective(self, weights: np.ndarray, xs: np.ndarray,
                               ys: np.ndarray) -> tuple[np.ndarray, float]:
        """Both at the same weights.  Losses that can share one pass over
        the batch between the two override this."""
        return (self.gradient(weights, xs, ys),
                self.objective(weights, xs, ys))


class HingeLoss(Loss):
    """L2-regularised hinge loss (linear SVM)."""

    def __init__(self, l2: float = 1e-3) -> None:
        self.l2 = l2

    def gradient(self, weights, xs, ys):
        return self._gradient(weights, xs, ys, ys * (xs @ weights))

    def objective(self, weights, xs, ys):
        return self._objective(weights, ys * (xs @ weights))

    def gradient_and_objective(self, weights, xs, ys):
        margins = ys * (xs @ weights)
        return (self._gradient(weights, xs, ys, margins),
                self._objective(weights, margins))

    def _gradient(self, weights, xs, ys, margins):
        active = margins < 1.0
        if not np.any(active):
            return self.l2 * weights
        sub = -(ys[active, None] * xs[active]).mean(axis=0) * (
            active.mean())
        return sub + self.l2 * weights

    def _objective(self, weights, margins):
        hinge = np.maximum(0.0, 1.0 - margins).mean()
        return float(hinge + 0.5 * self.l2 * weights @ weights)


class LogisticLoss(Loss):
    """L2-regularised logistic loss (LR)."""

    def __init__(self, l2: float = 1e-4) -> None:
        self.l2 = l2

    def gradient(self, weights, xs, ys):
        return self._gradient(weights, xs, ys,
                              self._margins(weights, xs, ys))

    def objective(self, weights, xs, ys):
        return self._objective(weights, self._margins(weights, xs, ys))

    def gradient_and_objective(self, weights, xs, ys):
        margins = self._margins(weights, xs, ys)
        return (self._gradient(weights, xs, ys, margins),
                self._objective(weights, margins))

    @staticmethod
    def _margins(weights, xs, ys):
        return np.clip(ys * (xs @ weights), -30.0, 30.0)

    def _gradient(self, weights, xs, ys, margins):
        sigma = 1.0 / (1.0 + np.exp(margins))
        grad = -(sigma * ys) @ xs / len(ys)
        return grad + self.l2 * weights

    def _objective(self, weights, margins):
        loss = np.log1p(np.exp(-margins)).mean()
        return float(loss + 0.5 * self.l2 * weights @ weights)


@dataclass
class ParamValue:
    weights: np.ndarray
    schedule: Any
    steps: int = 0
    last_objective: float = float("inf")
    #: Branch-loop step damping: a branch solves a *static* problem, so
    #: steps that increase the objective shrink this factor — guaranteeing
    #: convergence even under schedules (e.g. a large static rate) that
    #: would oscillate forever on the full batch.
    attenuation: float = 1.0


@dataclass
class SamplerValue:
    reservoir: ReservoirSampler
    weights: np.ndarray | None = None
    pending_inputs: int = 0
    #: Weights this sampler last computed a gradient with; used to report
    #: the effect of the intervening step on the same batch.
    prev_weights: np.ndarray | None = None


class SGDProgram(VertexProgram):
    """Vertex program shared by the SVM and LR workloads."""

    def __init__(self, loss: Loss, dim: int, n_samplers: int,
                 schedule_factory: Callable[[], Any],
                 batch_size: int = 16, reservoir_capacity: int = 512,
                 input_batch: int = 8, tolerance: float = 1e-4,
                 grad_cost_per_instance: float = 2e-7,
                 seed: int = 0, use_reservoir: bool = True) -> None:
        """``use_reservoir=False`` swaps in the recency-biased buffer the
        paper warns against (§3.2) — kept for the sampling ablation."""
        self.loss = loss
        self.dim = dim
        self.n_samplers = n_samplers
        self.schedule_factory = schedule_factory
        self.batch_size = batch_size
        self.reservoir_capacity = reservoir_capacity
        self.input_batch = input_batch
        self.tolerance = tolerance
        self.grad_cost_per_instance = grad_cost_per_instance
        self.seed = seed
        self.use_reservoir = use_reservoir

    # ---------------------------------------------------------------- init
    def init(self, ctx: VertexContext) -> None:
        if ctx.vertex_id == PARAM:
            ctx.value = ParamValue(weights=np.zeros(self.dim),
                                   schedule=self.schedule_factory())
            for index in range(self.n_samplers):
                ctx.add_target(sampler_id(index))
        else:
            _tag, index = ctx.vertex_id
            rng = np.random.default_rng((self.seed << 16) ^ (index + 1))
            if self.use_reservoir:
                sampler = ReservoirSampler(self.reservoir_capacity, rng)
            else:
                from repro.streams.sampling import RecencyBiasedBuffer

                sampler = RecencyBiasedBuffer(self.reservoir_capacity, rng)
            ctx.value = SamplerValue(reservoir=sampler)
            ctx.add_target(PARAM)

    # -------------------------------------------------------------- gather
    def gather(self, ctx: VertexContext, source: Any, delta: Any) -> bool:
        if ctx.vertex_id == PARAM:
            return self._gather_param(ctx, delta)
        return self._gather_sampler(ctx, source, delta)

    def _gather_param(self, ctx: VertexContext, delta: Any) -> bool:
        value: ParamValue = ctx.value
        if isinstance(delta, Delta):
            # Bootstrap input: broadcast the initial weights once.
            return True
        gradient, objective, count, objective_before = delta
        if count == 0:
            return False
        if objective_before is not None:
            value.schedule.observe_step(objective_before, objective)
        else:
            value.schedule.observe(objective)
        value.last_objective = objective
        if not ctx.in_main_loop and objective_before is not None \
                and objective > objective_before:
            value.attenuation *= 0.7
        step = value.schedule.step(np.asarray(gradient))
        if not ctx.in_main_loop:
            step = step * value.attenuation
        value.weights = value.weights + step
        value.steps += 1
        return bool(np.linalg.norm(step) > self.tolerance)

    def _gather_sampler(self, ctx: VertexContext, source: Any,
                        delta: Any) -> bool:
        value: SamplerValue = ctx.value
        if source is None:
            if delta.kind != ADD_INSTANCE:
                return False
            instance = delta.payload
            reservoir = value.reservoir
            slot = reservoir.offer(instance)
            if slot is not None and reservoir.rows is not None:
                xs, ys = reservoir.rows
                xs[slot] = instance.features
                ys[slot] = instance.label
            value.pending_inputs += 1
            if value.pending_inputs >= self.input_batch:
                value.pending_inputs = 0
                return value.weights is not None
            return False
        # New weights from the param vertex: compute a fresh gradient.
        value.prev_weights = value.weights
        value.weights = np.asarray(delta)
        return len(value.reservoir) > 0

    # ------------------------------------------------------------- scatter
    def scatter(self, ctx: VertexContext) -> None:
        if ctx.vertex_id == PARAM:
            value: ParamValue = ctx.value
            ctx.emit_all(value.weights.copy())
            return
        self._scatter_sampler(ctx)

    def _rows(self, reservoir: ReservoirSampler
              ) -> tuple[np.ndarray, np.ndarray]:
        """The reservoir as a ``(capacity, dim)`` row slab plus a label
        vector, slot for slot: built here the first time a forked or
        revived value scatters, kept current by ``_gather_sampler``."""
        if reservoir.rows is None:
            sample = reservoir.sample
            xs = np.empty((reservoir.capacity, self.dim))
            ys = np.empty(reservoir.capacity)
            xs[:len(sample)] = [instance.features for instance in sample]
            ys[:len(sample)] = [instance.label for instance in sample]
            reservoir.rows = (xs, ys)
        return reservoir.rows

    def _scatter_sampler(self, ctx: VertexContext) -> None:
        value: SamplerValue = ctx.value
        reservoir = value.reservoir
        size = len(reservoir)
        if value.weights is None or not size:
            return
        xs, ys = self._rows(reservoir)
        if ctx.in_main_loop:
            picks = reservoir.draw_indices(min(self.batch_size, size))
            xs, ys = xs[picks], ys[picks]
        else:
            xs, ys = xs[:size], ys[:size]
        gradient, objective = self.loss.gradient_and_objective(
            value.weights, xs, ys)
        # Step feedback on the SAME batch: how did the last descent step
        # change the objective?  (Comparing across batches would conflate
        # stream drift with overshoot.)
        objective_before = None
        if value.prev_weights is not None:
            objective_before = self.loss.objective(value.prev_weights,
                                                   xs, ys)
        ctx.emit(PARAM, (gradient, objective, len(ys), objective_before))

    # ---------------------------------------------------------------- cost
    def gather_cost(self, ctx: VertexContext, source: Any,
                    delta: Any) -> float | None:
        if ctx.vertex_id != PARAM and source is not None:
            # Receiving weights triggers a gradient pass over the batch.
            value: SamplerValue = ctx.value
            batch = (len(value.reservoir) if not ctx.in_main_loop
                     else min(self.batch_size, len(value.reservoir)))
            return 5e-6 + self.grad_cost_per_instance * batch * self.dim
        return None

    def activate_on_fork(self, ctx: VertexContext,
                         recently_updated: bool) -> bool:
        # The param vertex always re-anchors a branch loop.
        return ctx.vertex_id == PARAM or recently_updated

    def snapshot_value(self, value: Any) -> Any:
        """Cheap structural copy: instances are immutable, so the reservoir
        contents are shared; the containers and mutable scalars are
        cloned, the sampler's RNG travels as a saved state and its row
        slab stays with the live value."""
        if isinstance(value, ParamValue):
            # Schedules rebind their state arrays, never write into them
            # (DescentSchedule), so a shallow copy is independent.
            return ParamValue(value.weights.copy(), copy.copy(value.schedule),
                              value.steps, value.last_objective,
                              value.attenuation)
        if isinstance(value, SamplerValue):
            weights = None if value.weights is None else value.weights.copy()
            return SamplerValue(value.reservoir.snapshot(), weights,
                                value.pending_inputs)
        return copy.deepcopy(value)


class InstanceRouter:
    """Routes instances round-robin to the sampler shards."""

    def __init__(self, n_samplers: int) -> None:
        if n_samplers < 1:
            raise ValueError("need at least one sampler")
        self.n_samplers = n_samplers
        self._next = 0
        self._seeded = False

    def route(self, tup: StreamTuple) -> Iterable[tuple[Any, Delta]]:
        if tup.kind != ADD_INSTANCE:
            return
        if not self._seeded:
            # Wake the param vertex so it broadcasts initial weights.
            self._seeded = True
            yield PARAM, Delta("seed", None)
        target = sampler_id(self._next % self.n_samplers)
        self._next += 1
        yield target, Delta(ADD_INSTANCE, tup.payload, tup.weight)
