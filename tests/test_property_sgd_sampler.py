"""Property test: the SGD sampler's row slab, saved RNG states and branch
batches agree with the per-instance path they replace.

Random offer / draw / snapshot / revive / restore / branch-scatter
sequences, for both sampler classes, check that

* the live slab rows equal ``np.stack([i.x() for i in sample])``;
* a main-loop scatter computes exactly what the stacked batch of a
  ``copy.deepcopy`` of the reservoir would;
* a revived snapshot draws the same indices as a ``copy.deepcopy`` taken
  when the snapshot was;
* a branch scatter of a revived snapshot uses the whole stacked sample;
* later offers to the live value leave every snapshot unchanged.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import StaticRate
from repro.algorithms.sgd import (PARAM, HingeLoss, Instance, SGDProgram,
                                  sampler_id)
from repro.core.messages import MAIN_LOOP, branch_name
from repro.core.vertex import Delta, VertexContext, VertexState
from repro.streams.model import ADD_INSTANCE

DIM = 3
CAPACITY = 5
BATCH = 4
WEIGHTS = np.array([0.5, -0.25, 1.0])

_FEATURES = st.tuples(*[st.floats(-4.0, 4.0, allow_nan=False)] * DIM)
_OPS = st.lists(st.one_of(
    st.tuples(st.just("offer"),
              st.tuples(_FEATURES, st.sampled_from([-1, 1]))),
    st.tuples(st.sampled_from(["draw", "snapshot"]), st.just(0)),
    st.tuples(st.sampled_from(["revive", "restore", "branch"]),
              st.integers(min_value=0, max_value=50)),
), max_size=60)


def _stacked(sample):
    xs = np.stack([instance.x() for instance in sample])
    ys = np.asarray([instance.label for instance in sample], dtype=float)
    return xs, ys


def _scatter(program, ctx):
    program.scatter(ctx)
    return ctx.take_emitted().get(PARAM)


def _expected(program, weights, sample):
    xs, ys = _stacked(sample)
    return (program.loss.gradient(weights, xs, ys),
            program.loss.objective(weights, xs, ys), len(sample))


def _assert_emitted(emitted, expected):
    gradient, objective, count, _before = emitted
    assert np.array_equal(gradient, expected[0])
    assert objective == expected[1]
    assert count == expected[2]


@pytest.mark.parametrize("use_reservoir", [True, False],
                         ids=["reservoir", "recency"])
@settings(max_examples=120, deadline=None)
@given(ops=_OPS)
def test_slab_snapshots_and_branches_match_the_stacked_path(use_reservoir,
                                                            ops):
    program = SGDProgram(HingeLoss(1e-3), DIM, 1, lambda: StaticRate(0.1),
                         batch_size=BATCH, reservoir_capacity=CAPACITY,
                         input_batch=1, seed=3, use_reservoir=use_reservoir)
    state = VertexState(sampler_id(0))
    main = VertexContext(state, MAIN_LOOP, 0)
    program.init(main)
    program.gather(main, PARAM, WEIGHTS)
    # (snapshot, its sample at the time, deep copy of the live reservoir)
    stored = []
    for op, arg in ops:
        live = state.value
        if op == "offer":
            features, label = arg
            program.gather(main, None,
                           Delta(ADD_INSTANCE, Instance(features, label)))
        elif op == "draw" and len(live.reservoir):
            twin = copy.deepcopy(live.reservoir)
            batch = twin.draw(min(BATCH, len(twin)))
            _assert_emitted(_scatter(program, main),
                            _expected(program, live.weights, batch))
        elif op == "snapshot":
            stored.append((program.snapshot_value(live),
                           list(live.reservoir.sample),
                           copy.deepcopy(live.reservoir)))
        elif stored:
            snapshot, sample, twin = stored[arg % len(stored)]
            # The processor revives a stored version by snapshotting it.
            revived = program.snapshot_value(snapshot)
            if op == "revive":
                assert np.array_equal(
                    revived.reservoir.draw_indices(BATCH),
                    copy.deepcopy(twin).draw_indices(BATCH))
            elif op == "restore":
                state.value = revived
            else:
                branch = VertexContext(VertexState(sampler_id(0), revived),
                                       branch_name(1), 0)
                program.gather(branch, PARAM, WEIGHTS)
                emitted = _scatter(program, branch)
                if sample:
                    _assert_emitted(emitted,
                                    _expected(program, WEIGHTS, sample))
                    xs, ys = revived.reservoir.rows
                    stacked_xs, stacked_ys = _stacked(sample)
                    assert np.array_equal(xs[:len(sample)], stacked_xs)
                    assert np.array_equal(ys[:len(sample)], stacked_ys)
                else:
                    assert emitted is None

        reservoir = state.value.reservoir
        if reservoir.rows is not None and len(reservoir):
            xs, ys = reservoir.rows
            stacked_xs, stacked_ys = _stacked(reservoir.sample)
            assert np.array_equal(xs[:len(reservoir)], stacked_xs)
            assert np.array_equal(ys[:len(reservoir)], stacked_ys)
        for snapshot, sample, _twin in stored:
            assert snapshot.reservoir.sample == sample
            assert snapshot.reservoir.rows is None
