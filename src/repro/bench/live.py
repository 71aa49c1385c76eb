"""Live-backend scaling benchmark: SSSP wall-clock across worker counts.

Unlike the DES experiments this one actually forks OS processes: the
same SSSP stream runs on ``backend="live"`` with 1, 2 and 4 workers and
we measure end-to-end wall time (feed → convergence → final reports
collected).  Two shape checks keep the numbers honest:

* every worker count converges to the byte-exact Dijkstra distances
  (the digest is over the final finite distances, the part that is
  worker-count invariant — protocol counts are not);
* all worker counts produce the *same* digest, i.e. scaling changes
  the schedule, never the answer.

No speedup floor is asserted: at bench scale the protocol is chatty
relative to per-vertex work, so more workers mostly buy pipelining of
pickling against gathering — the committed numbers document that
honestly rather than gating CI on host load.  The ``direct`` / ``relayed``
columns say where the worker↔worker frames went: on their own queues, or
through the master (0 unless a worker was respawned)::

    python -m repro.bench live [--quick]    # merges the "live" section
                                            # into BENCH_perf.json
"""

from __future__ import annotations

import hashlib
import math
import platform
import sys
import time
from typing import Any

from repro.algorithms.graph_common import EdgeStreamRouter
from repro.algorithms.sssp import SSSPProgram, reference_sssp
from repro.bench.harness import ExperimentResult, merge_bench_json
from repro.core import Application, TornadoConfig, TornadoJob
from repro.datagen import livejournal_like
from repro.streams import UniformRate, edge_stream

QUICK_SIZE = (120, 500)
FULL_SIZE = (400, 2000)
QUICK_WORKERS = (1, 2)
FULL_WORKERS = (1, 2, 4)
SOURCE = 0
#: Columns of the printed table and fields of the JSON section's runs.
ROW_FIELDS = ("workers", "tuples", "wall_s", "tuples_per_s", "commits",
              "wakeups", "frames", "relayed", "direct", "master_blocked_s",
              "intake_batches", "reports", "worker_blocked_s")


def _digest(distances: dict[Any, float]) -> str:
    payload = repr(sorted((str(vertex), value)
                          for vertex, value in distances.items()))
    return hashlib.sha256(payload.encode()).hexdigest()


def _finite(values: dict[Any, Any]) -> dict[Any, float]:
    return {vertex: value.distance for vertex, value in values.items()
            if not math.isinf(value.distance)}


def _run_live(edges: list, n_workers: int, timeout: float) -> dict[str, Any]:
    """One timed live run; the clock covers spawn-to-final-report so the
    committed numbers reflect what a user of ``backend="live"`` waits."""
    stream = edge_stream(edges, UniformRate(rate=1e9))
    app = Application(SSSPProgram(SOURCE, max_distance=len(edges) * 2.0),
                      EdgeStreamRouter(), name="sssp")
    started = time.perf_counter()
    job = TornadoJob(app, TornadoConfig(
        backend="live", n_processors=n_workers, report_interval=0.02,
        storage_backend="memory", seed=7))
    try:
        job.feed(stream)
        job.run_until_converged(timeout=timeout)
        job.finalize(timeout=30.0)
        wall = time.perf_counter() - started
        distances = _finite(job.main_values())
        commits = job.total_commits
        pump = _pump_counters(job)
    finally:
        job.shutdown()
    return {"workers": n_workers, "tuples": len(stream), "wall_s": wall,
            "tuples_per_s": len(stream) / wall if wall > 0 else 0.0,
            "commits": commits, "digest": _digest(distances),
            "distances": distances, **pump}


def _pump_counters(job: Any) -> dict[str, Any]:
    """The master's ``live.pump.*`` counters and the workers' loop
    counters summed — what the wall-clock column is made of."""
    master = job.metrics.snapshot()
    workers = list(job.worker_stats().values())

    def total(field: str) -> float:
        return sum(stats[field] for stats in workers)

    return {
        "wakeups": int(master["live.pump.wakeups"]),
        "frames": int(master["live.pump.frames"]),
        "relayed": int(master["live.pump.relayed"]),
        "direct": sum(sum(stats["channel_sent"].values())
                      for stats in workers),
        "master_blocked_s": master["live.pump.blocked_s"],
        "intake_batches": int(total("intake_batches")),
        "reports": "/".join(str(int(total(field))) for field in
                            ("reports_tick", "reports_idle",
                             "reports_quiet_edge")),
        "worker_blocked_s": total("blocked_s"),
    }


def run_live_bench(quick: bool = False,
                   json_path: str | None = "BENCH_perf.json",
                   *, size: tuple[int, int] | None = None,
                   workers: tuple[int, ...] | None = None,
                   timeout: float = 120.0) -> ExperimentResult:
    """Run the scaling sweep, merge the ``"live"`` section into
    ``json_path`` (preserving whatever perf/delta already wrote) and
    return the usual experiment report."""
    n_vertices, n_edges = size or (QUICK_SIZE if quick else FULL_SIZE)
    sweep = workers or (QUICK_WORKERS if quick else FULL_WORKERS)
    edges = livejournal_like(n_vertices, n_edges, seed=7)
    reference = {vertex: value for vertex, value
                 in reference_sssp(edges, SOURCE).items()
                 if not math.isinf(value)}

    runs = [_run_live(edges, n, timeout) for n in sweep]

    result = ExperimentResult(
        experiment="live",
        title="Live backend: SSSP wall-clock vs worker count",
        columns=list(ROW_FIELDS),
        notes=("backend=\"live\" (one OS process per worker, spawn), "
               "wall time includes process startup and final-report "
               "collection; digest is over final finite distances; "
               "wakeups/frames/master_blocked_s are the master pump's "
               "(frames = everything the workers sent it, relayed = "
               "worker-to-worker wires among them), direct = payload "
               "frames on the workers' own queues, reports = "
               "tick/idle/quiet-edge summed over workers"),
    )
    for run in runs:
        result.add_row(**{field: run[field] for field in ROW_FIELDS})
    result.check("every worker count matches Dijkstra exactly",
                 all(run["distances"] == reference for run in runs),
                 f"{len(reference)} reachable vertices")
    result.check("identical digests across worker counts",
                 len({run["digest"] for run in runs}) == 1,
                 runs[0]["digest"][:12] + "…")

    report = {
        "bench": "live_backend",
        "version": 1,
        "quick": quick,
        "python": platform.python_version(),
        "graph": {"n_vertices": n_vertices, "n_edges": n_edges},
        "digest": runs[0]["digest"],
        "runs": [{field: run[field] for field in ROW_FIELDS}
                 for run in runs],
    }
    result.extras["report"] = report
    if json_path is not None:
        merge_bench_json(json_path, {"live": report})
    return result


def main(argv: list[str]) -> int:
    result = run_live_bench(quick="--quick" in argv)
    print(result.report())
    return 0 if result.all_checks_pass else 1


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main(sys.argv[1:]))
