"""Live-vs-sim equivalence suite (the DES-digest cross-check).

The same Tornado program runs once on the multiprocessing backend and
once on the discrete-event simulator with the same seed; the oracle in
``repro.live.oracle`` then asserts what the workload makes provable:

* **always** — identical final main-loop vertex state;
* **sync mode on tree dataflow with burst feeding** — identical
  protocol-phase totals (commits, updates sent/gathered, prepares,
  inputs) and therefore identical canonical digests.  In-degree ≤ 1
  plus per-link FIFO forces every gather sequence; feeding the whole
  stream at t≈0 removes the input-vs-update interleaving that changes
  re-announcement counts (see DESIGN.md §3h);
* **async mode** — both backends actually exercise the three-phase
  protocol (prepares > 0), final state still equal.

Plus the recovery path: SIGKILL a live worker mid-run, respawn it, and
require the byte-exact Dijkstra answer through the chaos exactness
oracle.
"""

import math

import pytest

from repro.algorithms import (EdgeStreamRouter, PageRankProgram,
                              reference_pagerank)
from repro.algorithms.sssp import SSSPProgram, reference_sssp
from repro.chaos.oracles import exactness
from repro.core import Application, TornadoConfig, TornadoJob
from repro.live import LiveJob, canonical_digest, cross_check
from repro.streams import UniformRate, edge_stream

#: Out-tree from "s": in-degree ≤ 1 everywhere, so per-link FIFO makes
#: every gather sequence — and hence the phase totals — deterministic.
TREE_EDGES = [("s", "a"), ("a", "b"), ("a", "c"), ("b", "d"),
              ("c", "e"), ("e", "f"), ("b", "g")]
#: Diamond-heavy general graph: multi-producer vertices, so only final
#: state (not counts) is comparable across backends.
GENERAL_EDGES = [("s", "a"), ("s", "b"), ("a", "c"), ("b", "c"),
                 ("c", "d"), ("d", "e"), ("b", "e"), ("e", "f")]
PR_TREE_EDGES = [("r", "a"), ("r", "b"), ("a", "c"), ("a", "d"),
                 ("b", "e"), ("e", "f")]

#: Rate high enough that every tuple lands at t≈0 (burst feeding).
BURST = UniformRate(rate=1e9)


def sssp_app():
    return Application(SSSPProgram("s"), EdgeStreamRouter(), name="sssp")


def pagerank_app():
    return Application(PageRankProgram(tolerance=1e-4), EdgeStreamRouter(),
                       name="pagerank")


def config(backend, **kwargs):
    kwargs.setdefault("n_processors", 2)
    kwargs.setdefault("report_interval",
                      0.02 if backend == "live" else 0.01)
    kwargs.setdefault("storage_backend", "memory")
    kwargs.setdefault("trace_enabled", True)
    kwargs.setdefault("seed", 7)
    return TornadoConfig(backend=backend, **kwargs)


def run_live(app, edges, **kwargs):
    job = TornadoJob(app(), config("live", **kwargs))
    try:
        job.feed(edge_stream(edges, BURST))
        job.run_until_converged(timeout=60.0)
        job.finalize(timeout=30.0)
    except BaseException:
        job.shutdown()
        raise
    return job


def run_sim(app, edges, **kwargs):
    job = TornadoJob(app(), config("sim", **kwargs))
    job.feed(edge_stream(edges, BURST))
    job.run_for(3.0)
    return job


def finite_distances(values):
    return {vid: value.distance for vid, value in values.items()
            if not math.isinf(value.distance)}


class TestBackendDispatch:
    def test_live_config_builds_livejob(self):
        job = TornadoJob(sssp_app(), config("live", n_processors=1))
        try:
            assert isinstance(job, LiveJob)
        finally:
            job.shutdown()

    def test_default_backend_is_sim(self):
        job = TornadoJob(sssp_app(), config("sim"))
        assert type(job) is TornadoJob

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            TornadoConfig(backend="threads")

    def test_live_rejects_rebalancer(self):
        with pytest.raises(ValueError):
            TornadoJob(sssp_app(), config("live", rebalance_enabled=True))

    def test_live_rebalancer_rejected_at_construction(self):
        with pytest.raises(ValueError, match="rebalancer"):
            TornadoConfig(backend="live", rebalance_enabled=True)
        TornadoConfig(backend="sim", rebalance_enabled=True)


class TestSyncTreeEquivalence:
    def test_sssp_exact_digest_match(self):
        live = run_live(sssp_app, TREE_EDGES, delay_bound=1)
        try:
            sim = run_sim(sssp_app, TREE_EDGES, delay_bound=1)
            report = cross_check(live, sim)
            assert report["ok"]
            assert report["live_digest"] == report["sim_digest"]
            # Sync mode really ran without PREPAREs on both backends.
            assert live.total_prepares == 0
            assert sim.total_prepares == 0
            assert live.loop_totals("main") == sim.loop_totals("main")
        finally:
            live.shutdown()

    def test_pagerank_exact_digest_match(self):
        live = run_live(pagerank_app, PR_TREE_EDGES, delay_bound=1)
        try:
            sim = run_sim(pagerank_app, PR_TREE_EDGES, delay_bound=1)
            report = cross_check(live, sim)
            assert report["ok"]
            assert report["live_digest"] == report["sim_digest"]
            expected = reference_pagerank(PR_TREE_EDGES)
            for vertex, rank in expected.items():
                assert live.main_values()[vertex].rank == pytest.approx(
                    rank, abs=0.02)
        finally:
            live.shutdown()

    def test_live_digest_stable_across_runs(self):
        """Two live runs of the same seed digest identically — the
        determinism the bug batch (sorted scatter/fan-out/window
        iteration) exists to protect."""
        first = run_live(sssp_app, TREE_EDGES, delay_bound=1)
        try:
            first_digest = canonical_digest(first)
        finally:
            first.shutdown()
        second = run_live(sssp_app, TREE_EDGES, delay_bound=1)
        try:
            assert canonical_digest(second) == first_digest
        finally:
            second.shutdown()


class TestAsyncGeneralEquivalence:
    def test_sssp_final_state_matches_sim_and_dijkstra(self):
        live = run_live(sssp_app, GENERAL_EDGES, delay_bound=65536,
                        n_processors=3)
        try:
            sim = run_sim(sssp_app, GENERAL_EDGES, delay_bound=65536,
                          n_processors=3)
            # Counts are interleaving-dependent on multi-producer
            # vertices; final state must still agree exactly.
            report = cross_check(live, sim, include_counts=False)
            assert report["ok"]
            # Both backends genuinely exercised the three-phase protocol.
            assert live.total_prepares > 0
            assert sim.total_prepares > 0
            want = {v: d for v, d in
                    reference_sssp(GENERAL_EDGES, "s").items()
                    if not math.isinf(d)}
            assert finite_distances(live.main_values()) == want
        finally:
            live.shutdown()


class TestLiveRecovery:
    def test_worker_kill_and_respawn_exact(self):
        """SIGKILL one worker mid-loop; after respawn + hydration the
        deployment must still produce the byte-exact Dijkstra answer
        (the chaos campaigns' exactness oracle, now against real
        process death)."""
        job = TornadoJob(sssp_app(), config("live", n_processors=3,
                                            seed=3))
        try:
            job.feed(edge_stream(GENERAL_EDGES, BURST))
            job.pump_for(0.15)
            job.kill_worker("proc-1")
            job.pump_for(0.1)
            job.respawn_worker("proc-1")
            job.run_until_converged(timeout=60.0)
            got = finite_distances(job.main_values())
            want = {v: d for v, d in
                    reference_sssp(GENERAL_EDGES, "s").items()
                    if not math.isinf(d)}
            verdict = exactness("live-crash-exactness", got, want)
            assert verdict.passed, verdict.detail
            # The respawned worker reported under its new incarnation.
            assert job.reports["proc-1"].incarnation == 1
            assert job.reports["proc-0"].incarnation == 0
        finally:
            job.shutdown()
