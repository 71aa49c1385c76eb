"""Integration tests for the live migration subsystem (paper §5.1 +
R-Storm-style planning): handoff while the main loop runs, epoch fencing,
and the rebalancer crash-interaction bug fixes."""

import math

import pytest

from repro.algorithms.graph_common import EdgeStreamRouter
from repro.algorithms.sssp import SSSPProgram, reference_sssp
from repro.core import Application, TornadoConfig, TornadoJob
from repro.core.messages import ProcessorRecovered
from repro.core.migration import MigrationPlanner
from repro.streams import UniformRate, edge_stream

EDGES = [(0, i) for i in range(1, 30)] + [(i, i + 1) for i in range(1, 29)]


def make_job(skewed=True, **config_kwargs):
    config_kwargs.setdefault("n_processors", 3)
    config_kwargs.setdefault("report_interval", 0.01)
    config_kwargs.setdefault("storage_backend", "memory")
    config_kwargs.setdefault("rebalance_enabled", True)
    config_kwargs.setdefault("rebalance_factor", 1.5)
    config_kwargs.setdefault("rebalance_min_gap", 0.001)
    config_kwargs.setdefault("rebalance_cooldown", 0.2)
    app = Application(SSSPProgram(0), EdgeStreamRouter(), name="sssp")
    job = TornadoJob(app, TornadoConfig(**config_kwargs))
    if skewed:
        # Pathological initial placement: everything on proc-0.
        for vertex in range(30):
            job.partition._overrides[vertex] = "proc-0"
    return job


def distances(values):
    return {vid: v.distance for vid, v in values.items()
            if not math.isinf(v.distance)}


def reference():
    return {v: d for v, d in reference_sssp(EDGES, 0).items()
            if not math.isinf(d)}


class TestLiveMigration:
    def test_migrates_without_pausing_ingest(self):
        job = make_job()
        stream = edge_stream(EDGES, UniformRate(rate=300.0))
        job.feed(stream)
        job.run_for(4.0)
        assert job.master.rebalances >= 1
        # The whole point of live migration: ingest never stops.
        assert job.ingester.tuples_ingested == len(stream)
        owners = {job.partition.owner(v) for v in range(30)}
        assert owners != {"proc-0"}

    def test_moves_are_batched(self):
        """One migration round moves several vertices, not one hot pin."""
        job = make_job()
        job.feed(edge_stream(EDGES, UniformRate(rate=300.0)))
        job.run_until(lambda: job.master.rebalances >= 1,
                      max_events=20_000_000)
        migrated = job.metrics.counter(
            "core.vertices_migration_planned").value
        assert migrated > 1

    def test_results_exact_after_live_migration(self):
        job = make_job()
        job.feed(edge_stream(EDGES, UniformRate(rate=300.0)))
        job.run_for(4.0)
        assert job.master.rebalances >= 1
        result = job.query_and_wait(full_activation=True)
        assert distances(result.values) == reference()
        # And the live approximation converged too (no gather lost to a
        # stale owner).
        job.run_until(job.quiescent, max_events=20_000_000)
        assert distances(job.main_values()) == reference()

    def test_migration_drains_to_idle(self):
        """After the run no fence, buffer or in-flight handoff remains."""
        job = make_job()
        job.feed(edge_stream(EDGES, UniformRate(rate=300.0)))
        job.run_for(4.0)
        job.run_until(job.quiescent, max_events=20_000_000)
        assert job.durable.migration is None
        for processor in job.processors:
            assert processor.migration_idle

    def test_query_during_migration_is_deferred_not_lost(self):
        job = make_job()
        job.feed(edge_stream(EDGES, UniformRate(rate=300.0)))
        job.run_until(lambda: job.durable.migration is not None,
                      max_events=20_000_000)
        assert job.durable.migration is not None
        query_id = job.query(full_activation=True)
        result = job.wait_for_query(query_id)
        # The branch forked only after the layout settled, on whatever
        # edge prefix had been ingested: every reported distance is a
        # real path length, so it is bounded below by the full-graph
        # reference (and vertex 0 is always exact).
        full = reference()
        for vertex, distance in distances(result.values).items():
            assert distance >= full[vertex]
        assert distances(result.values)[0] == 0

    def test_epoch_advances_once_per_round(self):
        job = make_job()
        job.feed(edge_stream(EDGES, UniformRate(rate=300.0)))
        job.run_for(4.0)
        # One atomic epoch bump per migration round, however many
        # vertices each round moved.
        assert job.partition.epoch == job.master.rebalances

    def test_same_seed_same_trace(self):
        def run():
            job = make_job(trace_enabled=True, seed=7)
            job.feed(edge_stream(EDGES, UniformRate(rate=300.0)))
            job.run_for(3.0)
            return job.trace.digest()

        assert run() == run()


class TestMigrationUnderFailures:
    def test_source_crash_mid_migration_stays_exact(self):
        job = make_job()
        job.feed(edge_stream(EDGES, UniformRate(rate=300.0)))
        job.run_until(lambda: job.durable.migration is not None,
                      max_events=20_000_000)
        # Kill the hot source while its vertices are in flight.
        job.failures.kill_now("proc-0", recover_after=0.3)
        job.run_for(4.0)
        job.run_until(job.quiescent, max_events=20_000_000)
        assert job.durable.migration is None
        assert distances(job.main_values()) == reference()

    def test_target_crash_mid_migration_stays_exact(self):
        job = make_job()
        job.feed(edge_stream(EDGES, UniformRate(rate=300.0)))
        job.run_until(lambda: job.durable.migration is not None,
                      max_events=20_000_000)
        record = job.durable.migration
        target = record.moves[0][2]
        job.failures.kill_now(target, recover_after=0.3)
        job.run_for(4.0)
        job.run_until(job.quiescent, max_events=20_000_000)
        assert job.durable.migration is None
        assert distances(job.main_values()) == reference()

    def test_master_crash_mid_migration_completes(self):
        job = make_job()
        job.feed(edge_stream(EDGES, UniformRate(rate=300.0)))
        job.run_until(lambda: job.durable.migration is not None,
                      max_events=20_000_000)
        job.failures.kill_now("master", recover_after=0.3)
        job.run_for(4.0)
        job.run_until(job.quiescent, max_events=20_000_000)
        # The durable record let the restarted master re-drive the
        # handoff to completion.
        assert job.durable.migration is None
        assert distances(job.main_values()) == reference()


class TestRecoveryDropsLoadStats:
    def test_recovered_processor_stats_invalidated(self):
        """A crashed-and-recovered processor's busy snapshots are stale
        (its counters restarted); the master must drop them."""
        job = make_job()
        job.feed(edge_stream(EDGES, UniformRate(rate=300.0)))
        planner = job.master.planner
        job.run_until(lambda: "proc-0" in planner._busy_total,
                      max_events=20_000_000)
        job.master._handle_processor_recovered(
            ProcessorRecovered("proc-0"))
        assert "proc-0" not in planner._busy_total
        assert "proc-0" not in planner._busy_rate


class TestPlannerBugfixes:
    """Busy-counter regression handling in the planner's load model."""

    def planner(self, **config_kwargs):
        config_kwargs.setdefault("n_processors", 3)
        config_kwargs.setdefault("rebalance_factor", 1.5)
        config_kwargs.setdefault("rebalance_min_gap", 0.001)
        return MigrationPlanner(TornadoConfig(**config_kwargs))

    def test_counter_regression_does_not_drag_rate_down(self):
        """A post-recovery busy counter restarts below its last value;
        the old bug folded that window as a clamped 0 into the EWMA,
        masking a genuinely hot processor."""
        planner = self.planner()
        planner.observe("proc-0", 1.0, 10.0)
        planner.observe("proc-0", 2.0, 11.0)
        assert planner.rates()["proc-0"] == 1.0
        # Crash + recovery: counter restarted from (almost) zero.
        planner.observe("proc-0", 0.05, 12.0)
        assert planner.rates()["proc-0"] == 1.0  # window skipped

    def test_counter_regression_reseeds_baseline(self):
        """The regressed report becomes the new baseline, so the *next*
        window measures real post-recovery load."""
        planner = self.planner()
        planner.observe("proc-0", 1.0, 10.0)
        planner.observe("proc-0", 2.0, 11.0)
        planner.observe("proc-0", 0.05, 12.0)  # regression, re-seed
        planner.observe("proc-0", 0.30, 13.0)  # real window: 0.25
        expected = 0.3 * 0.25 + 0.7 * 1.0
        assert planner.rates()["proc-0"] == pytest.approx(expected)

    def test_planner_scores_stable_across_kill_recover(self):
        """End to end: killing and recovering a hot processor must not
        leave the planner believing it went cold."""
        job = make_job()
        job.feed(edge_stream(EDGES, UniformRate(rate=300.0)))
        job.run_until(lambda: "proc-0" in job.master.planner._busy_rate,
                      max_events=20_000_000)
        job.failures.kill_now("proc-0", recover_after=0.3)
        job.run_for(0.35)
        # The restarted counter re-seeds cleanly: once fresh reports
        # arrive the rate reflects only post-recovery windows, never a
        # clamped-0 window from the counter restart.
        job.run_until(lambda: "proc-0" in job.master.planner._busy_rate,
                      max_events=20_000_000)
        assert 0.0 <= job.master.planner._busy_rate["proc-0"] <= 1.0
