"""Unit tests for the flight recorder and metrics registry."""

import json

import pytest

from repro.obs import (MetricsRegistry, TraceRecorder, phase_counts,
                       render_phase_table)


class TestTraceRecorder:
    def test_disabled_records_nothing(self):
        recorder = TraceRecorder(enabled=False)
        recorder.record(1.0, "cat", "name", actor="a", x=1)
        assert len(recorder) == 0
        assert recorder.dump() == ""

    def test_ring_evicts_oldest(self):
        recorder = TraceRecorder(capacity=3)
        for index in range(5):
            recorder.record(float(index), "cat", "tick", i=index)
        assert len(recorder) == 3
        assert recorder.evicted == 2
        assert recorder.recorded == 5
        assert [event.field("i") for event in recorder] == [2, 3, 4]
        # Sequence numbers survive eviction (they are recorder-global).
        assert [event.seq for event in recorder] == [2, 3, 4]

    def test_dump_is_canonical_and_field_order_free(self):
        a = TraceRecorder()
        b = TraceRecorder()
        a.record(0.5, "net", "drop", actor="x", dst="y", reason="down")
        b.record(0.5, "net", "drop", actor="x", reason="down", dst="y")
        assert a.dump() == b.dump()
        assert a.digest() == b.digest()

    def test_dump_distinguishes_different_traces(self):
        a = TraceRecorder()
        b = TraceRecorder()
        a.record(0.5, "net", "drop", actor="x")
        b.record(0.6, "net", "drop", actor="x")
        assert a.digest() != b.digest()

    def test_select_filters(self):
        recorder = TraceRecorder()
        recorder.record(0.0, "protocol", "commit", actor="p0", iteration=1)
        recorder.record(0.1, "protocol", "update", actor="p1", iteration=1)
        recorder.record(0.2, "net", "drop", actor="p0")
        assert len(recorder.select(category="protocol")) == 2
        assert len(recorder.select(name="drop")) == 1
        assert len(recorder.select(
            predicate=lambda e: e.actor == "p0")) == 2

    def test_counts(self):
        recorder = TraceRecorder()
        recorder.record(0.0, "a", "x")
        recorder.record(0.1, "a", "x")
        recorder.record(0.2, "b", "y")
        assert recorder.counts() == {"a.x": 2, "b.y": 1}

    def test_chrome_trace_export(self):
        recorder = TraceRecorder()
        recorder.record(0.001, "protocol", "commit", actor="proc-0",
                        iteration=3, loop="main")
        blob = json.loads(recorder.chrome_trace_json())
        events = blob["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        instants = [e for e in events if e["ph"] == "i"]
        assert meta[0]["args"]["name"] == "proc-0"
        assert instants[0]["ts"] == pytest.approx(1000.0)
        assert instants[0]["name"] == "protocol.commit"
        assert instants[0]["args"] == {"iteration": 3, "loop": "main"}

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)


class TestMetricsRegistry:
    def test_counter_get_or_create(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.counter("x").inc(2)
        assert registry.counter("x").value == 3

    def test_gauge_tracks_peak(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(5)
        gauge.set(2)
        assert gauge.value == 2
        assert gauge.peak == 5

    def test_histogram_buckets_and_stats(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat")
        for value in (2e-6, 5e-4, 5e-4, 0.3, 2000.0):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.min == 2e-6
        assert histogram.max == 2000.0
        assert histogram.mean == pytest.approx((2e-6 + 1e-3 + 0.3
                                                + 2000.0) / 5)
        assert histogram.quantile(0.5) == pytest.approx(1e-3)
        # The overflow observation lands past the last bound.
        assert histogram.bucket_counts[-1] == 1

    def test_snapshot_is_sorted_and_plain(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc()
        registry.gauge("g").set(1)
        registry.histogram("h").observe(0.5)
        snapshot = registry.snapshot()
        assert list(snapshot)[:2] == ["a", "b"]
        assert snapshot["g"] == {"value": 1, "peak": 1}
        assert snapshot["h"]["count"] == 1
        assert "a  1" in registry.render()


class TestReport:
    def make_recorder(self):
        recorder = TraceRecorder()
        for iteration in (0, 0, 1):
            recorder.record(0.1, "protocol", "update", actor="p0",
                            loop="main", iteration=iteration)
        recorder.record(0.2, "protocol", "prepare", actor="p0",
                        loop="main", iteration=0)
        recorder.record(0.3, "protocol", "ack", actor="p1", loop="main",
                        iteration=0)
        recorder.record(0.4, "protocol", "commit", actor="p0",
                        loop="main", iteration=0)
        recorder.record(0.5, "protocol", "commit", actor="p0",
                        loop="branch-1", iteration=2)
        recorder.record(0.6, "progress", "terminated", actor="master",
                        loop="main", iteration=0)
        return recorder

    def test_phase_counts_by_loop_iteration(self):
        table = phase_counts(self.make_recorder())
        assert table[("main", 0)] == {"update": 2, "prepare": 1,
                                      "ack": 1, "commit": 1}
        assert table[("main", 1)]["update"] == 1
        assert table[("branch-1", 2)]["commit"] == 1

    def test_phase_counts_loop_filter(self):
        table = phase_counts(self.make_recorder(), loop="branch-1")
        assert list(table) == [("branch-1", 2)]

    def test_render_phase_table(self):
        text = render_phase_table(self.make_recorder())
        lines = text.splitlines()
        assert lines[0].split() == ["loop", "iteration", "updates",
                                    "prepares", "acks", "commits"]
        assert any("branch-1" in line for line in lines)


class TestChromeTraceOrdering:
    def test_events_sorted_by_timestamp(self):
        """The live backend's Lamport-adjusted clocks can record events
        out of order; tracing UIs require non-decreasing ts."""
        recorder = TraceRecorder()
        recorder.record(0.5, "protocol", "commit", actor="p0")
        recorder.record(0.2, "protocol", "update", actor="p1")
        recorder.record(0.5, "protocol", "ack", actor="p0")
        ts = [event["ts"] for event in recorder.to_chrome_trace()
              if event["ph"] == "i"]
        assert ts == sorted(ts)

    def test_equal_times_keep_seq_order(self):
        recorder = TraceRecorder()
        recorder.record(0.5, "protocol", "commit", actor="p0")
        recorder.record(0.2, "protocol", "update", actor="p1")
        recorder.record(0.5, "protocol", "ack", actor="p0")
        names = [event["name"] for event in recorder.to_chrome_trace()
                 if event["ph"] == "i"]
        assert names == ["protocol.update", "protocol.commit",
                         "protocol.ack"]
