"""Skew benchmark (Fig. 9-adjacent): a planted hot-key workload.

Every vertex starts pinned to ``proc-0`` — the pathological layout a
hash partitioner produces when one key dominates the stream — and the
same SSSP stream is absorbed under two policies:

* ``none`` — rebalancing disabled: the hot processor drains the whole
  backlog serially.
* ``live`` — the live migrator: the planner streams batches of vertex
  handoffs while ingest and the main loop keep running.

The measurement is *virtual* time — deterministic and machine
independent — so the mode ratios are exact replay facts, not wall-clock
estimates: completion is the virtual time at which the whole stream has
been ingested and the main loop is quiescent, and throughput is tuples
per virtual second.  The shape checks assert what the migration
subsystem is for: the live migrator rebalances, spreads the planted hot
spot, stays exact, and beats no rebalancing by at least 2x on
throughput.
"""

from __future__ import annotations

import math
from typing import Any

from repro.algorithms.graph_common import EdgeStreamRouter
from repro.algorithms.sssp import SSSPProgram, reference_sssp
from repro.bench.harness import ExperimentResult
from repro.core import Application, TornadoConfig, TornadoJob
from repro.datagen import livejournal_like
from repro.streams import UniformRate, edge_stream

MODES = ("none", "live")

#: Default planted-skew workload size (heavy-tailed random graph, the
#: same generator Fig. 9 uses) and stream rate; ``run_skew`` callers can
#: shrink or grow them.
N_VERTICES = 400
N_EDGES = 3000
STREAM_RATE = 8000.0
#: Per-gather compute cost: high enough that draining the hot
#: processor's backlog — not the stream rate — bounds completion.
GATHER_COST = 2e-3


def skewed_edges(n_vertices: int = N_VERTICES,
                 n_edges: int = N_EDGES) -> list[tuple[int, int]]:
    """A heavy-tailed random graph; its hot keys plus the planted
    placement (every vertex on ``proc-0``) make the skew."""
    return livejournal_like(n_vertices, n_edges, seed=0)


def make_skew_job(mode: str, n_vertices: int = N_VERTICES,
                  **config_overrides: Any) -> TornadoJob:
    config = dict(n_processors=4, report_interval=0.01,
                  storage_backend="memory", gather_cost=GATHER_COST,
                  rebalance_enabled=mode == "live",
                  rebalance_factor=1.5, rebalance_min_gap=0.001,
                  rebalance_cooldown=0.1)
    config.update(config_overrides)
    app = Application(SSSPProgram(0), EdgeStreamRouter(), name="sssp")
    job = TornadoJob(app, TornadoConfig(**config))
    # Plant the hot spot: every vertex starts on proc-0.
    job.partition.reassign_batch(
        [(vertex, "proc-0") for vertex in range(n_vertices)])
    return job


def measure_mode(mode: str, n_vertices: int = N_VERTICES,
                 n_edges: int = N_EDGES, rate: float = STREAM_RATE,
                 **config_overrides: Any) -> dict[str, Any]:
    """Absorb the planted-skew stream under one policy; returns the
    completion time, throughput and the run's bookkeeping."""
    job = make_skew_job(mode, n_vertices, **config_overrides)
    edges = skewed_edges(n_vertices, n_edges)
    stream = edge_stream(edges, UniformRate(rate))
    job.feed(stream)
    total = len(stream)
    job.run_until(lambda: job.ingester.tuples_ingested >= total,
                  max_events=200_000_000)
    job.run_until(job.quiescent, max_events=200_000_000)
    completion = job.sim.now
    reference = {v: d for v, d in reference_sssp(edges, 0).items()
                 if not math.isinf(d)}
    approx = {vid: value.distance
              for vid, value in job.main_values().items()
              if not math.isinf(value.distance)}
    owners = {job.partition.owner(vertex)
              for vertex in range(n_vertices)}
    return {
        "mode": mode,
        "tuples": total,
        "completion_s": completion,
        "throughput": total / completion if completion > 0 else 0.0,
        "rebalances": job.master.rebalances,
        "owners": len(owners),
        "exact": approx == reference,
        "digest": job.trace.digest() if job.config.trace_enabled else "",
    }


def skew_section(n_vertices: int = N_VERTICES, n_edges: int = N_EDGES,
                 rate: float = STREAM_RATE) -> dict[str, Any]:
    """Per-mode virtual-time results plus the live/none throughput
    ratio and the same-seed determinism digests (all machine
    independent)."""
    runs = {mode: measure_mode(mode, n_vertices, n_edges, rate)
            for mode in MODES}
    repeat = measure_mode("live", n_vertices, n_edges, rate,
                          trace_enabled=True)
    again = measure_mode("live", n_vertices, n_edges, rate,
                         trace_enabled=True)
    none_tp = runs["none"]["throughput"]
    return {
        "n_vertices": n_vertices,
        "n_edges": n_edges,
        "stream_rate": rate,
        "modes": {mode: {key: run[key] for key in
                         ("tuples", "completion_s", "throughput",
                          "rebalances", "owners", "exact")}
                  for mode, run in runs.items()},
        "live_over_none": (runs["live"]["throughput"] / none_tp
                           if none_tp else 0.0),
        "determinism": {"digests": [repeat["digest"], again["digest"]],
                        "identical": repeat["digest"] == again["digest"]},
    }


def run_skew(n_vertices: int = N_VERTICES, n_edges: int = N_EDGES,
             rate: float = STREAM_RATE) -> ExperimentResult:
    """Planted hot-key skew: live migration vs no rebalancing."""
    section = skew_section(n_vertices, n_edges, rate)
    result = ExperimentResult(
        experiment="skew",
        title="Planted hot-key skew: live migration vs no rebalancing",
        columns=["mode", "tuples", "completion_s", "throughput",
                 "rebalances", "owners", "exact"],
        notes=("virtual time on the simulated cluster; every vertex "
               "starts pinned to proc-0"),
    )
    for mode in MODES:
        result.add_row(mode=mode, **section["modes"][mode])
    modes = section["modes"]
    result.check(
        "live migration ≥2x no-rebalancing throughput",
        section["live_over_none"] >= 2.0,
        f"live/none={section['live_over_none']:.2f}x")
    result.check(
        "live migration rebalances",
        modes["live"]["rebalances"] >= 1,
        f"rebalances={modes['live']['rebalances']}")
    result.check(
        "live migration spreads the planted hot spot",
        modes["live"]["owners"] > 1,
        f"owners={modes['live']['owners']}")
    result.check(
        "every mode converges to the exact distances",
        all(run["exact"] for run in modes.values()))
    result.check(
        "same seed ⇒ byte-identical trace under live migration",
        section["determinism"]["identical"],
        f"digest={section['determinism']['digests'][0][:16]}…")
    result.extras["section"] = section
    return result
