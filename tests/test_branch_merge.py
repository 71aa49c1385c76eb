"""Merging a converged branch back into the main loop (paper §5.2).

A merge writes the branch's results into the main loop at iteration
τ + B.  The main loop kept ingesting while the branch ran, so the merge
must not undo what it absorbed meanwhile.
"""

from __future__ import annotations

import pytest

from repro.bench.workloads import Scale, sssp_bundle
from repro.core import MAIN_LOOP

SCALE = Scale(n_vertices=120, n_edges=360, stream_rate=4000.0)
QUERY_EVERY = 0.02
SETTLE_S = 0.05


def main_loop_targets(job) -> dict:
    return {vertex: state.targets
            for processor in job.processors
            for vertex, state in processor.loops[MAIN_LOOP].vertices.items()}


@pytest.mark.xfail(strict=True, reason=(
    "a merge overwrites main-loop vertices (value and targets) with the "
    "branch's fork-time state, so edges ingested while the branch ran "
    "are lost"))
def test_a_merge_keeps_edges_the_main_loop_ingested_meanwhile():
    bundle = sssp_bundle(SCALE, merge_policy="always", delay_bound=16)
    job = bundle.job
    job.feed(bundle.stream)
    end = bundle.stream[-1].timestamp
    at = QUERY_EVERY
    while at < end:
        job.schedule_query(at)
        at += QUERY_EVERY
    ingester = job.ingester
    job.run_until(lambda: ingester.pending_inputs() == 0
                  and ingester.transport.unacked == 0)
    job.run_for(SETTLE_S)

    targets = main_loop_targets(job)
    missing = sorted({(source, target)
                      for source, target in
                      (tup.payload[:2] for tup in bundle.stream)
                      if target not in targets.get(source, ())})
    assert not missing, f"{len(missing)} streamed edges lost: {missing[:5]}"
