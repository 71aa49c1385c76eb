"""Unit tests for stream sources, rate schedules and reservoir sampling."""

import numpy as np
import pytest

from repro.streams import (ADD_EDGE, REMOVE_EDGE, RecencyBiasedBuffer,
                           ReservoirSampler, UniformRate, edge_stream,
                           instance_stream, point_stream, sample_is_uniform)


class TestRateSchedules:
    def test_uniform_rate_spacing(self):
        times = list(UniformRate(rate=4.0).timestamps(4))
        assert times == pytest.approx([0.25, 0.5, 0.75, 1.0])

    def test_uniform_rate_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            UniformRate(rate=0.0)


class TestEdgeStream:
    def test_insert_only(self):
        stream = edge_stream([(1, 2), (2, 3)], UniformRate(1.0))
        assert [s.kind for s in stream] == [ADD_EDGE, ADD_EDGE]
        assert [s.weight for s in stream] == [1, 1]
        assert stream[0].timestamp < stream[1].timestamp

    def test_deletions_interleaved(self):
        rng = np.random.default_rng(0)
        edges = [(i, i + 1) for i in range(50)]
        stream = edge_stream(edges, UniformRate(1.0),
                             delete_fraction=0.2, rng=rng)
        removes = [s for s in stream if s.kind == REMOVE_EDGE]
        assert len(removes) == 10
        assert all(s.weight == -1 for s in removes)
        # Every retraction is of an edge that is actually inserted.
        inserted = {s.payload for s in stream if s.kind == ADD_EDGE}
        assert all(s.payload in inserted for s in removes)

    def test_delete_fraction_requires_rng(self):
        with pytest.raises(ValueError):
            edge_stream([(1, 2)], UniformRate(1.0), delete_fraction=0.5)

    def test_point_and_instance_streams(self):
        points = point_stream([(0.0, 1.0), (2.0, 3.0)], UniformRate(1.0))
        instances = instance_stream(["i1"], UniformRate(1.0))
        assert len(points) == 2 and len(instances) == 1


class TestReservoirSampler:
    def test_fills_then_caps(self):
        sampler = ReservoirSampler(5, np.random.default_rng(0))
        sampler.extend(range(3))
        assert sorted(sampler) == [0, 1, 2]
        sampler.extend(range(3, 100))
        assert len(sampler) == 5
        assert sampler.seen == 100

    def test_uniform_inclusion_over_trials(self):
        """Old and new items are equally likely to be retained — the
        property that makes SGD initial guesses valid (paper §3.2)."""
        population, capacity, trials = 20, 5, 3000
        counts = {i: 0 for i in range(population)}
        rng = np.random.default_rng(7)
        for _ in range(trials):
            sampler = ReservoirSampler(capacity, rng)
            sampler.extend(range(population))
            for item in sampler:
                counts[item] += 1
        assert sample_is_uniform(counts, trials, capacity, population,
                                 tolerance=0.2)

    def test_recency_buffer_is_biased(self):
        """Contrast case: the naive buffer forgets everything old."""
        buffer = RecencyBiasedBuffer(5)
        for item in range(100):
            buffer.offer(item)
        assert sorted(buffer) == [95, 96, 97, 98, 99]

    def test_draw_with_replacement(self):
        sampler = ReservoirSampler(3, np.random.default_rng(0))
        sampler.extend("abc")
        drawn = sampler.draw(10)
        assert len(drawn) == 10
        assert set(drawn) <= {"a", "b", "c"}

    def test_draw_from_empty(self):
        sampler = ReservoirSampler(3, np.random.default_rng(0))
        assert sampler.draw(4) == []

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ReservoirSampler(0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            RecencyBiasedBuffer(-1)
