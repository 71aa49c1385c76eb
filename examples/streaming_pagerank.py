"""The paper's motivating scenario (§3.1): a search engine ranking a
crawled, *retractable* web graph.

Crawlers insert and delete edges continuously; the search engine refreshes
its ranking at regular intervals by forking branch loops.  Because the
main loop keeps the approximation warm, each refresh (and an ad-hoc query
between refreshes) converges within about ten virtual milliseconds instead
of recomputing the graph from scratch; each printed latency is that
query-to-result time.

Run with::

    python examples/streaming_pagerank.py
"""

import numpy as np

from repro.algorithms import EdgeStreamRouter, PageRankProgram
from repro.core import Application, TornadoConfig, TornadoJob
from repro.datagen import livejournal_like
from repro.streams import UniformRate, edge_stream


def main():
    edges = livejournal_like(n_vertices=120, n_edges=500, seed=7)
    rng = np.random.default_rng(7)
    # 10% of crawled links later disappear (pages edited or removed).
    stream = edge_stream(edges, UniformRate(rate=250.0),
                         delete_fraction=0.1, rng=rng)

    app = Application(PageRankProgram(damping=0.85, tolerance=1e-2),
                      EdgeStreamRouter(), name="search-engine")
    job = TornadoJob(app, TornadoConfig(n_processors=4,
                                        storage_backend="memory"))
    job.feed(stream)

    refresh_interval = 0.4
    for refresh in range(1, 5):
        job.run(until=refresh * refresh_interval)
        result = job.query_and_wait()
        ranked = sorted(result.values.items(),
                        key=lambda kv: kv[1].rank, reverse=True)[:5]
        crawled = job.ingester.tuples_ingested
        print(f"refresh #{refresh} at t={job.sim.now:.2f}s "
              f"({crawled} crawl events, "
              f"latency {result.latency * 1000:.1f}ms)")
        for vertex, value in ranked:
            print(f"   page {vertex}: rank {value.rank:.3f}")
    print("\nad-hoc query between refreshes:")
    job.run_for(0.1)
    result = job.query_and_wait()
    print(f"   answered in {result.latency * 1000:.1f} virtual ms")


if __name__ == "__main__":
    main()
