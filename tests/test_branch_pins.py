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
        "bb1b0be6054fd0c294c176a16593967b9ac09c76679584eedc025dbc9ec4bd67",
        10517,
        "5e3daaee29edde26927f45a0348f773f23b60639c1cf208151c51374a1ad17a2"),
    "pagerank_always": (
        "cc149d0bb996efad3649d3968c24a04fc587d1d82c782aefa794ab144c8e2a64",
        12720,
        "248a15c733d90dc172c535eefd3958efc2f60bea6689fb75ad46fc83837ba1b6"),
    "pagerank_kill": (
        "59db9b4489a5b92d8cb36724d92717082583f0d5a167d73a53491e230d727fe9",
        28918,
        "9e30b671ea33179b545225fc22b2282492ef922706e00cbd487f690effd9b5ef"),
    "sssp_always": (
        "b35650761ab9c0891abb78efe13a07e8582b88377155d11057f5f0b59c40bb35",
        24943,
        "ddd4d601ea0916b5b0e8483b136d7b68dfda2783dd20b15461d244193f6c3ba5"),
    "sssp_batch_always": (
        "72bd6882bc25ee1b7d7a47ddb5ab0d9a8e7578a14c46619e991d90dde16e459f",
        12881,
        "e097a97792eff1086cc2c158c7ce52eef652f82d93fcd160d7c1806dcb935908"),
    "sssp_batch_kill": (
        "2100d68290f68f3a405826361fd70d500880466b73491eb7fa529634c72ab99d",
        12290,
        "cecd633ec070f71444210b5ef61f0cb8da36276c00011af5e2fda16287265a0e"),
    "sssp_if_quiescent": (
        "bd5d7a95aae91bbaa6be914f6752e206955a395db3910aae280a7126305c1da6",
        25372,
        "b362350e112778a8187887fe5d4cbb21eaf6ad355f1922bb68e5aa5f8c45adfd"),
    "svm_always": (
        "bc9449d3cf4fce2aa2cd287681e79cbb6c4206be9e304cff09ae68eed285dd56",
        54704,
        "bac61ca3d0b13600ec98e08fb9f2cbc221bf0742c9fea1b0fa512615157b8330"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_query_path_pin(case):
    assert CASES[case]() == PINS[case]


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f"    {name!r}: {CASES[name]()!r},")
