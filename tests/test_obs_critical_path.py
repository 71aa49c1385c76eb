"""Property-based tests for the SnailTrail-style critical-path
extractor, plus a planted-bottleneck fixture over a real traced run.

The properties pin the extractor's structural invariants over arbitrary
traces: per-window path weight never exceeds the window span, the walk
is a pure function of the trace (same events ⇒ identical report), and
every window is anchored exactly at its iteration's
``progress.terminated`` boundary.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import Scale, sssp_bundle
from repro.obs import TraceRecorder, extract_critical_path

PHASE_NAMES = ("update", "prepare", "ack", "commit")


@st.composite
def traces(draw):
    """An arbitrary flight-recorder event list: protocol phases and
    ``net.send`` hops on up to three actors, with ``progress.terminated``
    anchors for loop ``main`` sprinkled in."""
    n_actors = draw(st.integers(min_value=1, max_value=3))
    actors = [f"p{index}" for index in range(n_actors)]
    n_events = draw(st.integers(min_value=2, max_value=40))
    recorder = TraceRecorder()
    time = 0.0
    iteration = 0
    for _ in range(n_events):
        time += draw(st.integers(min_value=1, max_value=10)) / 10.0
        kind = draw(st.sampled_from(("phase", "phase", "send", "anchor")))
        actor = draw(st.sampled_from(actors))
        if kind == "send" and n_actors > 1:
            dst = draw(st.sampled_from(
                [other for other in actors if other != actor]))
            eta = time + draw(st.integers(min_value=1, max_value=5)) / 10.0
            recorder.record(time, "net", "send", actor=actor, dst=dst,
                            eta=eta)
        elif kind == "anchor":
            recorder.record(time, "progress", "terminated",
                            actor="master", loop="main",
                            iteration=iteration)
            iteration += 1
        else:
            recorder.record(time, "protocol",
                            draw(st.sampled_from(PHASE_NAMES)),
                            actor=actor, loop="main",
                            iteration=iteration)
    return recorder


class TestPathProperties:
    @given(traces())
    @settings(max_examples=60, deadline=None)
    def test_weight_never_exceeds_span(self, recorder):
        report = extract_critical_path(recorder)
        for window in report.windows:
            assert window.weight <= window.span + 1e-9

    @given(traces())
    @settings(max_examples=60, deadline=None)
    def test_extraction_is_deterministic(self, recorder):
        events = recorder.events
        assert (extract_critical_path(events)
                == extract_critical_path(events))

    @given(traces())
    @settings(max_examples=60, deadline=None)
    def test_windows_anchor_at_iteration_boundaries(self, recorder):
        """Window k ends exactly at its ``progress.terminated`` event and
        starts where window k-1 ended (the first starts at the trace
        head); every segment lies inside its window."""
        anchors = [event for event in recorder
                   if event.category == "progress"
                   and event.name == "terminated"]
        report = extract_critical_path(recorder)
        assert len(report.windows) == len(anchors)
        previous_end = min((event.time for event in recorder),
                           default=0.0)
        for window, anchor in zip(report.windows, anchors):
            assert window.end == anchor.time
            assert window.iteration == anchor.field("iteration")
            assert window.start == previous_end
            previous_end = window.end
            for segment in window.segments:
                assert window.start <= segment.start
                assert segment.end <= window.end
                assert segment.duration > 0

    @given(traces())
    @settings(max_examples=60, deadline=None)
    def test_scores_are_normalised_fractions(self, recorder):
        report = extract_critical_path(recorder)
        for scores in (report.phase_scores(), report.processor_scores(),
                       report.link_scores()):
            assert all(0.0 <= score <= 1.0 + 1e-9
                       for score in scores.values())
        combined = (sum(report.phase_scores().values())
                    + sum(report.link_scores().values()))
        if report.total_weight > 0:
            # Phase + link segments partition the path exactly.
            assert abs(combined - 1.0) < 1e-6


class TestPlantedBottleneck:
    """End to end: a delay spike planted on one processor link must rank
    first in the extracted link criticality, reproducibly."""

    LINK = ("proc-2", "proc-1")

    def run_once(self):
        bundle = sssp_bundle(
            Scale(n_vertices=60, n_edges=240, stream_rate=100_000.0),
            n_processors=4, n_nodes=4, trace_enabled=True,
            trace_links=True, trace_capacity=500_000)
        job = bundle.job
        job.network.add_delay(5e-3, *self.LINK)
        job.feed(bundle.stream)
        total = len(bundle.stream)
        job.run_until(lambda: job.ingester.tuples_ingested >= total)
        job.run_until(job.quiescent, max_events=50_000_000)
        return job.trace.digest(), extract_critical_path(job.trace)

    def test_planted_link_ranks_first_and_reproducibly(self):
        digest_a, report_a = self.run_once()
        digest_b, report_b = self.run_once()
        scores = report_a.link_scores()
        assert max(sorted(scores), key=scores.get) == self.LINK
        # The slow link dominates every other link by a wide margin.
        others = [score for link, score in scores.items()
                  if link != self.LINK]
        assert scores[self.LINK] > 2 * max(others, default=0.0)
        # Same seed ⇒ byte-identical trace ⇒ identical ranking.
        assert digest_a == digest_b
        assert report_a == report_b

    def test_report_json_shape(self):
        _digest, report = self.run_once()
        import json

        payload = json.loads(report.to_json())
        assert payload["loop"] == "main"
        assert payload["windows"]
        assert all(w["weight"] <= w["span"] + 1e-9
                   for w in payload["windows"])
        assert f"{self.LINK[0]}->{self.LINK[1]}" in payload["link_scores"]
