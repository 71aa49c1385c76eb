"""Query-path pins: exact fingerprints of branch-loop runs.

Each case drives a small seeded workload through the fork / branch /
stop / merge path and pins three things:

* the flight-recorder digest (every protocol event, in order, in virtual
  time),
* ``sim.events_processed``,
* the sha256 of every query's full result values (the ``repr`` of each
  graph value, not just the distances; the weight and centroid bytes of
  each SGD and k-means value, whose reprs embed object addresses).

The pins were recorded from the eager fork, which copied every main-loop
vertex into the branch, and hold for the copy-on-write fork that replaced
it: sharing main-loop state until one side writes must change neither the
virtual timeline nor any result.  Every case ends with two back-to-back
queries on an unchanged main loop, the case a published-version cache
serves.  The pins are hash-seed free (CI re-runs this module under
another ``PYTHONHASHSEED``).

Re-pin (only with the diff explained) by running

    PYTHONPATH=src python -m tests.test_branch_pins
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.bench.workloads import (Scale, kmeans_bundle, pagerank_bundle,
                                   sssp_bundle, svm_bundle)
from repro.core import TornadoJob

SSSP_SCALE = Scale(n_vertices=120, n_edges=360, stream_rate=4000.0)
PAGERANK_SCALE = Scale(n_vertices=50, n_edges=150, stream_rate=4000.0)
SVM_SCALE = Scale(n_instances=100, dim=4, stream_rate=4000.0)
KMEANS_SCALE = Scale(n_points=80, dim=3, k=3, stream_rate=2000.0)
#: Queries issued while the stream is still arriving, this far apart...
QUERY_EVERY = 0.02
#: ...each followed by a second one this much later, while the first
#: branch still runs.
SECOND_AFTER = 0.002
#: Virtual time the main loop gets after the stream to absorb it.
SETTLE_S = 0.05
#: Delay bound B of every case.  A merge lands at iteration τ + B and the
#: master then terminates the iterations in between one by one; the
#: default B = 65536 would spend the test budget (and the flight
#: recorder's ring) on that walk.
DELAY_BOUND = 16


def _settle(job: TornadoJob) -> None:
    """Run until the whole stream is ingested, then ``SETTLE_S`` more.
    (Not until ``quiescent()``: under ``merge_policy="always"`` a few
    main-loop vertices can stay blocked behind a prepare_list entry that
    no commit clears, so the main loop never reads idle.)"""
    ingester = job.ingester
    job.run_until(lambda: ingester.pending_inputs() == 0
                  and ingester.transport.unacked == 0)
    job.run_for(SETTLE_S)


def _value_bytes(value) -> bytes:
    """Fingerprint one result value.  SGD and k-means values hold numpy
    payloads and their reprs embed object addresses, so those contribute
    the raw bytes of their weights and centroids instead."""
    arrays = [getattr(value, name) for name in ("weights", "position")
              if isinstance(getattr(value, name, None), np.ndarray)]
    centroids = getattr(value, "centroids", None)
    if isinstance(centroids, dict):
        arrays += [np.asarray(centroids[key])
                   for key in sorted(centroids, key=repr)]
    if arrays or hasattr(value, "reservoir"):
        return b"".join(array.tobytes() for array in arrays)
    return repr(value).encode()


def _finish(job: TornadoJob, query_ids: list[int],
            full_activation: bool = False) -> tuple[str, int, str]:
    """Wait for ``query_ids``, run two back-to-back queries on the settled
    main loop, and fingerprint the run."""
    for query_id in query_ids:
        job.wait_for_query(query_id)
    _settle(job)
    query_ids = query_ids + [job.query_and_wait(full_activation).query_id
                             for _ in range(2)]
    results = hashlib.sha256()
    for query_id in query_ids:
        # In the store's order: the order a result lists its vertices in
        # is part of what a query returns.
        for vertex, value in job.result(query_id).values.items():
            results.update(f"{query_id} {vertex!r} ".encode())
            results.update(_value_bytes(value) + b"\n")
    return job.trace.digest(), job.sim.events_processed, results.hexdigest()


def _streaming(bundle) -> tuple[str, int, str]:
    """Query pairs every ``QUERY_EVERY`` while the stream arrives, so that
    two branches are live at once and merges land between forks."""
    job = bundle.job
    job.feed(bundle.stream)
    end = bundle.stream[-1].timestamp
    handles = []
    at = QUERY_EVERY
    while at < end:
        handles.append(job.schedule_query(at))
        handles.append(job.schedule_query(at + SECOND_AFTER))
        at += QUERY_EVERY
    job.run_until(lambda: handles[-1].issued)
    return _finish(job, [handle.query_id for handle in handles])


def _killed_mid_branch(bundle, full_activation: bool,
                       fail_delay: float,
                       recover_after: float) -> tuple[str, int, str]:
    """Fork half-way through the stream and crash proc-1 while the branch
    runs; it restarts from its checkpoint and the branch still finishes."""
    job = bundle.job
    job.feed(bundle.stream)
    cutoff = len(bundle.stream) // 2
    job.run_until(lambda: job.ingester.tuples_ingested >= cutoff)
    query_id = job.query(full_activation=full_activation)
    killed_at = job.sim.now + fail_delay
    job.failures.kill_at(killed_at, "proc-1", recover_after=recover_after)
    pins = _finish(job, [query_id], full_activation)
    assert job.result(query_id).completed_at > killed_at
    return pins


def sssp_always() -> tuple[str, int, str]:
    return _streaming(sssp_bundle(SSSP_SCALE, delete_fraction=0.2,
                                  merge_policy="always",
                                  delay_bound=DELAY_BOUND,
                                  trace_enabled=True))


def sssp_if_quiescent() -> tuple[str, int, str]:
    return _streaming(sssp_bundle(SSSP_SCALE, delete_fraction=0.2,
                                  merge_policy="if_quiescent",
                                  delay_bound=DELAY_BOUND,
                                  trace_enabled=True))


def sssp_batch_always() -> tuple[str, int, str]:
    """Batch mode: a merge rewrites main-loop vertices the main loop never
    propagated, under a second branch that still shares them."""
    return _streaming(sssp_bundle(SSSP_SCALE, delete_fraction=0.2,
                                  main_loop_mode="batch",
                                  merge_policy="always",
                                  delay_bound=DELAY_BOUND,
                                  trace_enabled=True))


def pagerank_always() -> tuple[str, int, str]:
    return _streaming(pagerank_bundle(PAGERANK_SCALE, merge_policy="always",
                                      delay_bound=DELAY_BOUND,
                                      trace_enabled=True))


def svm_always() -> tuple[str, int, str]:
    """SGD: numpy gradient tuples and weight vectors on the session wire."""
    return _streaming(svm_bundle(SVM_SCALE, n_samplers=3,
                                 merge_policy="always",
                                 delay_bound=DELAY_BOUND,
                                 trace_enabled=True))


def kmeans_always() -> tuple[str, int, str]:
    """k-means: centroid arrays and ``(partial sum, count)`` pairs."""
    return _streaming(kmeans_bundle(KMEANS_SCALE, n_shards=3,
                                    merge_policy="always",
                                    delay_bound=DELAY_BOUND,
                                    trace_enabled=True))


def sssp_batch_kill() -> tuple[str, int, str]:
    """The fig8d set-up: batch-mode main loop, fully activated branch."""
    return _killed_mid_branch(
        sssp_bundle(SSSP_SCALE, delay_bound=DELAY_BOUND,
                    main_loop_mode="batch",
                    merge_policy="never", report_interval=0.01,
                    trace_enabled=True, gather_cost=5e-4),
        full_activation=True, fail_delay=0.01, recover_after=0.05)


def pagerank_kill() -> tuple[str, int, str]:
    return _killed_mid_branch(
        pagerank_bundle(PAGERANK_SCALE, delay_bound=DELAY_BOUND,
                        trace_enabled=True),
        full_activation=False, fail_delay=2e-3, recover_after=0.05)


CASES = {
    "sssp_always": sssp_always,
    "sssp_if_quiescent": sssp_if_quiescent,
    "sssp_batch_always": sssp_batch_always,
    "pagerank_always": pagerank_always,
    "sssp_batch_kill": sssp_batch_kill,
    "pagerank_kill": pagerank_kill,
    "svm_always": svm_always,
    "kmeans_always": kmeans_always,
}

PINS: dict[str, tuple[str, int, str]] = {
    "kmeans_always": (
        "c4a46b6a26537b60c85690edca779a08708c94eabfc76588e290c5c3089f3004",
        15039,
        "0c5afcea165360b72e1c288ba0d44823f55c809337fbb4dda4b93a991c3e7d17"),
    "pagerank_always": (
        "5e9de7ba869e2e107842b304b436f2d9faacea536361240c90b589490d2d0da2",
        22378,
        "9e1bd06ef0a810fa0c2f3a7b1d4c25f9906c47bc512002411028c88c7dcfddb5"),
    "pagerank_kill": (
        "a97c489165c3adec8abfaa61279babb234161c0034945d60ee37f8ef9135d21a",
        39066,
        "cab3353fb3594a5df5efa60b2a18cc314977dc4dc06069c4e142995decadb887"),
    "sssp_always": (
        "eb1b07e746a8d910f5f2047a1e876cdce87e79477ae677e84a0afb52afe3e514",
        30827,
        "a2e0e94e76013e0117e69ea4bad829c489fd84808108279240e6640d797e8e04"),
    "sssp_batch_always": (
        "46b3dae797eeafaaf58c5549c4b7be4b896859a81aa2429088d6618817f543e4",
        16686,
        "03d01e0babdc3e4e6e9a6147d0301a739c8bf41c056118a497d8c66f04d3f757"),
    "sssp_batch_kill": (
        "80f609e16131e44b14442beb06e741fc3299da4e8e62f113e867bffb449830ad",
        16298,
        "cecd633ec070f71444210b5ef61f0cb8da36276c00011af5e2fda16287265a0e"),
    "sssp_if_quiescent": (
        "444f38348a912e47203012c76dbf8a59f0f1d62f6586ea07cecf2f095d4e1135",
        32812,
        "e8cb87be2610dcd4ad535d62c609ffd82c7a81c2aeac0059dca0becb91472998"),
    "svm_always": (
        "ce19c99a276fdcf5dd67aa88fe3d7537163ed9e73e9a3da07af64b0314f43690",
        78434,
        "a2526d90ea75dd66ac39729a92cb5c0f81587fd6d9261cd6637212d1169cac20"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_query_path_pin(case):
    assert CASES[case]() == PINS[case]


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f"    {name!r}: {CASES[name]()!r},")
