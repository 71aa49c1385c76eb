"""Fault tolerance in action (paper §5.3, §6.3.2).

Runs SSSP with a large delay bound, kills the master and then a processor
mid-stream, and shows (a) the asynchronous loop riding out the master
outage, (b) the processor recovering from its last checkpoint, and (c) the
final query still matching Dijkstra exactly.

Run with::

    python examples/fault_tolerance_demo.py
"""

import math

from repro.algorithms import EdgeStreamRouter, SSSPProgram, reference_sssp
from repro.core import Application, TornadoConfig, TornadoJob
from repro.datagen import livejournal_like
from repro.streams import UniformRate, edge_stream


def commits_per_interval(job, until, dt=0.25):
    samples = []
    previous = job.total_commits
    while job.sim.now < until:
        job.run_for(dt)
        current = job.total_commits
        samples.append((job.sim.now, current - previous))
        previous = current
    return samples


def main():
    edges = livejournal_like(n_vertices=120, n_edges=500, seed=3)
    app = Application(SSSPProgram(0, max_distance=500.0),
                      EdgeStreamRouter(), name="ft-demo")
    config = TornadoConfig(n_processors=4, storage_backend="memory",
                           delay_bound=65536, retransmit_timeout=0.2)
    job = TornadoJob(app, config)
    job.feed(edge_stream(edges, UniformRate(rate=400.0)))

    print("killing the master at t=0.50s (recovers at t=1.25s)")
    job.failures.kill_at(0.50, TornadoJob.MASTER, recover_after=0.75)
    print("killing proc-2 at t=2.00s (recovers at t=2.50s)")
    job.failures.kill_at(2.00, "proc-2", recover_after=0.50)

    for at, commits in commits_per_interval(job, until=3.0):
        bar = "#" * min(60, commits // 10)
        print(f"  t={at:4.2f}s  {commits:5d} updates  {bar}")

    job.run_for(1.0)
    result = job.query_and_wait(full_activation=True)
    got = {vid: v.distance for vid, v in result.values.items()
           if not math.isinf(v.distance)}
    want = {v: d for v, d in reference_sssp(edges, 0).items()
            if not math.isinf(d)}
    exact = got == want
    print(f"\nfinal query exact despite two failures: {exact} "
          f"({len(got)} reachable vertices)")


if __name__ == "__main__":
    main()
