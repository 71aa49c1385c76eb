"""The recorder as a regression oracle: same seed, identical trace.

Runs a shrunk version of the Fig. 8d workload (SSSP branch loop with a
mid-run processor failure) twice with the same seed and asserts the
flight-recorder dumps are byte-for-byte identical, pins the seed-7 run's
trace digest, event count and metrics, then checks that the
per-iteration protocol-phase counts the bench needs are available.  It
also checks that advancing a job in event-budgeted time slices records
exactly what a straight run does.

The pin was recorded from the kernel with its timer wheel, tombstone
compaction and same-instant coalescing both on and off (they produced
the same values), so it holds the kernel to the plain heap's timeline.
It is hash-seed free (CI re-runs this module under another
``PYTHONHASHSEED``).  Re-pin (only with the diff explained) by running

    PYTHONPATH=src python -m tests.test_obs_determinism
"""

import hashlib
import json
from dataclasses import replace

from repro.bench.workloads import SMALL, sssp_bundle
from repro.core import TornadoConfig, TornadoJob
from repro.obs import phase_counts, render_phase_table
from repro.streams import UniformRate, edge_stream

from .conftest import SSSP_EDGES, sssp_application

TINY = replace(SMALL, n_vertices=80, n_edges=320, stream_rate=4000.0)


#: ``(trace digest, sim.events_processed, sha256 of the metrics
#: snapshot)`` of ``_fig8d_style_run(seed=7)``.
FIG8D_PIN = (
    "c9d5a77c775094409dc835d9af7592d49e16480c33db6d406e28ada9386ecdd9",
    6250,
    "3b1ea4f3663fbd58612c30fa4cf3ef5ccbcfe321118653c0da6a4d16216851e4")


def _fig8d_style_run(seed: int) -> TornadoJob:
    """One shrunk Fig. 8d run: fork a branch from half the stream, kill
    proc-1 mid-branch, run to convergence."""
    bundle = sssp_bundle(TINY, delay_bound=256, main_loop_mode="batch",
                         merge_policy="never", report_interval=0.01,
                         gather_cost=1e-3, trace_enabled=True, seed=seed)
    job = bundle.job
    job.feed(bundle.stream)
    cutoff = len(bundle.stream) // 2
    job.run_until(lambda: job.ingester.tuples_ingested >= cutoff)
    query_id = job.query(full_activation=True)
    job.failures.kill_at(job.sim.now + 0.05, "proc-1",
                         recover_after=0.3)
    job.run_until(lambda: job.ingester.query_done(query_id))
    return job


def _fingerprint(job: TornadoJob) -> tuple[str, int, str]:
    metrics = json.dumps(job.metrics.snapshot(), sort_keys=True)
    return (job.trace.digest(), job.sim.events_processed,
            hashlib.sha256(metrics.encode()).hexdigest())


def _sliced_sssp_job(seed: int) -> TornadoJob:
    """The shared SSSP job with its feed and one full-activation query
    armed on the virtual timeline, ready to run."""
    job = TornadoJob(sssp_application(), TornadoConfig(
        seed=seed, n_processors=2, report_interval=0.01,
        storage_backend="memory", trace_enabled=True))
    job.feed(edge_stream(SSSP_EDGES, UniformRate(rate=1000.0)))
    job.schedule_query(1.5, full_activation=True)
    return job


class TestTraceDeterminism:
    def test_sliced_running_is_digest_neutral(self):
        """Advancing a job in ``run(until=k*0.25, max_events=200)``
        slices, as the chaos campaign and ``run_for`` drivers do, records
        nothing a straight run to the same horizon does not."""
        horizon, width, budget = 2.0, 0.25, 200
        straight = _sliced_sssp_job(seed=7)
        straight.run(until=horizon)
        sliced = _sliced_sssp_job(seed=7)
        k, truncated = 0, 0
        while True:
            target = min((k + 1) * width, horizon)
            sliced.sim.run(until=target, max_events=budget)
            if sliced.sim.now < target and sliced.sim.pending_events:
                # The budget cut the slice short: resume toward the same
                # boundary, so the boundaries never move.
                truncated += 1
                continue
            k += 1
            if target >= horizon:
                break
        assert truncated > 0
        assert sliced.sim.now == straight.sim.now
        assert sliced.trace.digest() == straight.trace.digest()
        assert sliced.main_values() == straight.main_values()

    def test_same_seed_produces_identical_traces(self):
        first = _fig8d_style_run(seed=7)
        second = _fig8d_style_run(seed=7)
        assert first.trace.recorded == second.trace.recorded
        assert first.trace.dump() == second.trace.dump()
        assert first.trace.digest() == second.trace.digest()

    def test_fig8d_run_matches_pin(self):
        """The timer wheel, compaction and coalescing must not change a
        byte of the trace — only how fast the wall clock gets there."""
        assert _fingerprint(_fig8d_style_run(seed=7)) == FIG8D_PIN

    def test_metrics_are_deterministic_too(self):
        first = _fig8d_style_run(seed=3)
        second = _fig8d_style_run(seed=3)
        assert first.metrics.snapshot() == second.metrics.snapshot()

    def test_recorder_exposes_protocol_phases(self):
        job = _fig8d_style_run(seed=7)
        table = phase_counts(job.trace)
        assert table, "no protocol events recorded"
        branch_rows = {key: row for key, row in table.items()
                       if key[0].startswith("branch")}
        assert branch_rows, "no branch-loop phase rows"
        assert sum(row["commit"] for row in branch_rows.values()) > 0
        assert sum(row["update"] for row in branch_rows.values()) > 0
        # The rendered table is non-degenerate and parseable.
        text = render_phase_table(job.trace)
        assert len(text.splitlines()) >= 3

    def test_failure_run_records_network_drops_and_frontier(self):
        job = _fig8d_style_run(seed=7)
        counts = job.trace.counts()
        assert counts.get("progress.terminated", 0) > 0
        # The killed processor lost in-flight messages.
        assert any(key.startswith("net.drop") for key in counts)
        assert any(link.dropped > 0
                   for link in job.network.link_stats.values())

    def test_disabled_recorder_stays_empty(self):
        bundle = sssp_bundle(TINY, report_interval=0.01)
        bundle.feed_all()
        bundle.job.run_for(0.2)
        assert len(bundle.job.trace) == 0
        assert bundle.job.trace.recorded == 0


if __name__ == "__main__":
    print(f"FIG8D_PIN = {_fingerprint(_fig8d_style_run(seed=7))!r}")
