"""Columnar-wire benchmarks: typed column runs vs per-row scatter
messages, A/B-ed across ``TornadoConfig.columnar_wire``.

The gate changes only the *representation* of a flushed session window —
same-``(loop, destination)`` packable scatters leave as parallel column
tuples inside a :class:`~repro.core.messages.ColumnBatch` instead of one
``VertexUpdate`` object per row — so every scenario here pairs a wall-
clock ratio with a byte-identity oracle: the pack may never change any
observable result, it may only get there faster.

Scenarios:

* ``protocol_leg`` — the dense-scatter protocol leg in isolation: a
  quiesced single-processor SSSP job receives the *same* pre-built
  N-row envelope over and over, once as a ``SessionBatch`` of
  ``VertexUpdate`` objects (the scalar unpack loop) and once as a
  ``ColumnBatch`` (the row fast path).  Offers are deliberately
  non-improving, so ``gather`` never dirties a vertex and no PREPARE
  round fires — the timing is the pure message leg the pack targets.
  This is where the committed ≥2x floor lives.
* ``dense_sim`` — end-to-end: zero-tolerance PageRank on a layered
  dense DAG (the densest scatter the router can produce), gate off vs
  on, run to quiescence on the DES backend.  The final ranks must be
  byte-identical; the wall ratio is recorded without a floor (end-to-end
  time includes gather compute the pack cannot touch).
* ``live_wall`` — the multiprocessing backend: the same SSSP stream on
  2 workers, gate off vs on, end-to-end wall clock.  Both runs must
  produce the same canonical final-state digest and the gate-on run
  must actually pack (``job.wire_rows() > 0``).
* ``digest_parity`` — the determinism oracle on the DES backend: with
  tracing on and a fixed seed, the flight-recorder digest (every event,
  in order, with virtual-time costs) must be byte-identical gate off vs
  on — in a steady run *and* under a kill/recover chaos schedule (a
  mid-window owner flip exercises the scalar fallback rows).

::

    python -m repro.bench wire [--quick]     # merges the "wire" section
                                             # into BENCH_perf.json
    python -m repro.bench wire --quick --check-baseline   # CI: validate
                                             # the committed section
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import sys
import time
from typing import Any

from repro.algorithms import PageRankProgram
from repro.algorithms.graph_common import EdgeStreamRouter
from repro.algorithms.sssp import SSSPProgram
from repro.bench.harness import ExperimentResult, merge_bench_json
from repro.core import Application, TornadoConfig, TornadoJob
from repro.core.messages import (MAIN_LOOP, ColumnBatch, SessionBatch,
                                 VertexUpdate)
from repro.live import canonical_digest
from repro.streams import UniformRate, edge_stream

#: protocol_leg sizes: rows per envelope and timed dispatch repeats.
LEG_ROWS = 256
QUICK_REPEATS, FULL_REPEATS = 40, 200
#: Chain length of the pre-seeded graph the envelopes land on.
LEG_CHAIN = 48
#: A non-improving offer: far above every converged chain distance, so
#: gather never dirties a vertex and the timing stays on the message leg.
LEG_OFFER = 1e6
#: dense_sim layered-DAG sizes (layer width, #layers) and stream rate.
QUICK_DAG, FULL_DAG = (10, 4), (16, 7)
DENSE_RATE = 1e5
#: live_wall graph sizes and worker count.
QUICK_LIVE, FULL_LIVE = (120, 500), (300, 1500)
LIVE_WORKERS = 2
#: Committed full-size floor for the protocol leg, and the loose CI
#: smoke floor (shared runners are noisy; the full floor is what the
#: --check-baseline job holds the committed numbers to).
PROTOCOL_FLOOR, QUICK_PROTOCOL_FLOOR = 2.0, 1.3
#: Fixed weighted graph for the traced parity pair (same shape as the
#: session-window determinism suite: a reachable core plus shortcuts).
PARITY_EDGES = [
    ("s", "a", 1.0), ("s", "b", 4.0), ("a", "c", 2.0), ("b", "c", 1.0),
    ("c", "d", 3.0), ("d", "e", 1.0), ("b", "e", 9.0), ("e", "f", 2.0),
    ("f", "g", 1.0), ("d", "g", 7.0), ("a", "h", 5.0), ("h", "d", 1.0),
]


def _digest(items: dict[Any, float]) -> str:
    payload = repr(sorted((str(key), value)
                          for key, value in items.items()))
    return hashlib.sha256(payload.encode()).hexdigest()


def _distances(job: TornadoJob) -> dict[Any, float]:
    return {vertex: value.distance
            for vertex, value in job.main_values().items()
            if not math.isinf(value.distance)}


# ----------------------------------------------------------- protocol leg
def _chain_edges(length: int) -> list[tuple[str, str, float]]:
    return [(f"v{i}", f"v{i + 1}", 1.0) for i in range(length)]


def _seeded_leg_job(columnar_wire: bool) -> TornadoJob:
    """One single-processor SSSP job run to quiescence: every chain
    vertex holds a finite distance, so the bench envelopes below gather
    without changing anything."""
    app = Application(SSSPProgram("v0"), EdgeStreamRouter(), name="sssp")
    job = TornadoJob(app, TornadoConfig(
        n_processors=1, report_interval=0.02, storage_backend="memory",
        columnar_wire=columnar_wire, seed=11))
    stream = edge_stream(_chain_edges(LEG_CHAIN), UniformRate(rate=1e5))
    job.feed(stream)
    total = len(stream)
    job.run_until(lambda: job.ingester.tuples_ingested >= total)
    job.run_until(lambda: job.quiescent(), max_events=100_000_000)
    return job


def _leg_rows(job: TornadoJob, n_rows: int) -> list[tuple]:
    """N packable rows aimed at vertices the (sole) processor owns.
    Producers are fresh ids, so the rows are never stale; iteration 0
    sits far under the delay bound; the offer never improves a
    distance."""
    proc = job.processors[0]
    consumers = sorted(proc.loops[MAIN_LOOP].vertices, key=str)
    return [(f"bench-{i}", consumers[i % len(consumers)], 0, LEG_OFFER)
            for i in range(n_rows)]


def _time_dispatch(proc: Any, batch: Any, repeats: int) -> float:
    proc._dispatch(batch)                     # warm-up (slot creation)
    started = time.perf_counter()
    for _ in range(repeats):
        proc._dispatch(batch)
    return time.perf_counter() - started


def protocol_leg_section(repeats: int) -> dict[str, Any]:
    """Time the same rows through both unpack paths on twin jobs, then
    hold the paths to identical observable state."""
    scalar_job = _seeded_leg_job(columnar_wire=False)
    column_job = _seeded_leg_job(columnar_wire=True)
    rows = _leg_rows(scalar_job, LEG_ROWS)
    assert rows == _leg_rows(column_job, LEG_ROWS)
    scalar_batch = SessionBatch(
        MAIN_LOOP, tuple(VertexUpdate(MAIN_LOOP, *row) for row in rows))
    column_batch = ColumnBatch(MAIN_LOOP, (tuple(zip(*rows)),))
    scalar_wall = _time_dispatch(scalar_job.processors[0], scalar_batch,
                                 repeats)
    column_wall = _time_dispatch(column_job.processors[0], column_batch,
                                 repeats)
    events = LEG_ROWS * repeats
    scalar_eps = events / scalar_wall if scalar_wall > 0 else 0.0
    column_eps = events / column_wall if column_wall > 0 else 0.0
    scalar_loop = scalar_job.processors[0].loops[MAIN_LOOP]
    column_loop = column_job.processors[0].loops[MAIN_LOOP]
    state_match = (
        _digest(_distances(scalar_job)) == _digest(_distances(column_job))
        and scalar_loop.gathered_total == column_loop.gathered_total)
    fast_rows = column_job.metrics.counter("core.wire_row_gathers").value
    return {
        "rows": LEG_ROWS, "repeats": repeats, "events": events,
        "scalar": {"wall_s": scalar_wall, "rows_per_s": scalar_eps},
        "column": {"wall_s": column_wall, "rows_per_s": column_eps},
        "speedup": column_eps / scalar_eps if scalar_eps else 0.0,
        "state_match": state_match,
        "fast_rows": int(fast_rows),
    }


# -------------------------------------------------------------- dense sim
def _layered_dag(width: int, layers: int) -> list[tuple[int, int, float]]:
    edges = []
    for layer in range(layers - 1):
        base, nxt = layer * width, (layer + 1) * width
        for u in range(width):
            for v in range(width):
                edges.append((base + u, nxt + v, 1.0))
    return edges


def _dense_sim_run(wire: bool, size: tuple[int, int]) -> dict[str, Any]:
    width, layers = size
    stream = edge_stream(_layered_dag(width, layers),
                         UniformRate(DENSE_RATE))
    app = Application(PageRankProgram(tolerance=0.0), EdgeStreamRouter(),
                      name="pagerank")
    job = TornadoJob(app, TornadoConfig(
        n_processors=4, report_interval=0.02, storage_backend="memory",
        columnar_wire=wire, seed=11))
    started = time.perf_counter()
    job.feed(stream)
    total = len(stream)
    job.run_until(lambda: job.ingester.tuples_ingested >= total)
    job.run_until(lambda: job.quiescent(), max_events=100_000_000)
    wall = time.perf_counter() - started
    ranks = {vertex: value.rank
             for vertex, value in job.main_values().items()}
    snapshot = job.metrics.snapshot()
    return {"tuples": total, "wall_s": wall,
            "tuples_per_s": total / wall if wall > 0 else 0.0,
            "digest": _digest(ranks),
            "packed_rows": int(snapshot.get("core.wire_packed_rows", 0)),
            "fallback_rows": int(snapshot.get("core.wire_fallback", 0))}


def dense_sim_section(size: tuple[int, int],
                      repeats: int) -> dict[str, Any]:
    off_runs = [_dense_sim_run(False, size) for _ in range(repeats)]
    on_runs = [_dense_sim_run(True, size) for _ in range(repeats)]
    off = max(off_runs, key=lambda run: run["tuples_per_s"])
    on = max(on_runs, key=lambda run: run["tuples_per_s"])
    digest_match = len({run["digest"]
                        for run in off_runs + on_runs}) == 1
    return {
        "dag": {"width": size[0], "layers": size[1]},
        "off": {k: off[k] for k in ("tuples", "wall_s", "tuples_per_s")},
        "on": {k: on[k] for k in ("tuples", "wall_s", "tuples_per_s")},
        "speedup": (on["tuples_per_s"] / off["tuples_per_s"]
                    if off["tuples_per_s"] else 0.0),
        "digest": off["digest"], "digest_match": digest_match,
        "packed_rows": on["packed_rows"],
        "fallback_rows": on["fallback_rows"],
    }


# -------------------------------------------------------------- live wall
def _live_run(edges: list, wire: bool, timeout: float) -> dict[str, Any]:
    stream = edge_stream(edges, UniformRate(rate=1e9))
    app = Application(SSSPProgram(0, max_distance=len(edges) * 2.0),
                      EdgeStreamRouter(), name="sssp")
    started = time.perf_counter()
    job = TornadoJob(app, TornadoConfig(
        backend="live", n_processors=LIVE_WORKERS, report_interval=0.02,
        storage_backend="memory", columnar_wire=wire,
        seed=7))
    try:
        job.feed(stream)
        job.run_until_converged(timeout=timeout)
        job.finalize(timeout=30.0)
        wall = time.perf_counter() - started
        # Final-state digest only: protocol counts vary run to run on a
        # multi-producer live graph by construction (see live/oracle.py).
        digest = canonical_digest(job, include_counts=False)
        wire_rows = job.wire_rows()
    finally:
        job.shutdown()
    return {"tuples": len(stream), "wall_s": wall,
            "tuples_per_s": len(stream) / wall if wall > 0 else 0.0,
            "digest": digest, "wire_rows": wire_rows}


def live_wall_section(size: tuple[int, int], repeats: int,
                      timeout: float) -> dict[str, Any]:
    from repro.datagen import livejournal_like

    edges = livejournal_like(*size, seed=7)
    off_runs = [_live_run(edges, False, timeout) for _ in range(repeats)]
    on_runs = [_live_run(edges, True, timeout) for _ in range(repeats)]
    off = max(off_runs, key=lambda run: run["tuples_per_s"])
    on = max(on_runs, key=lambda run: run["tuples_per_s"])
    return {
        "graph": {"n_vertices": size[0], "n_edges": size[1]},
        "workers": LIVE_WORKERS,
        "off": {k: off[k] for k in ("tuples", "wall_s", "tuples_per_s")},
        "on": {k: on[k] for k in ("tuples", "wall_s", "tuples_per_s")},
        "speedup": (on["tuples_per_s"] / off["tuples_per_s"]
                    if off["tuples_per_s"] else 0.0),
        "digest": off["digest"],
        "digest_match": len({run["digest"]
                             for run in off_runs + on_runs}) == 1,
        "wire_rows": on["wire_rows"],
        "off_wire_rows": off["wire_rows"],
    }


# ----------------------------------------------------------- digest parity
def _traced_digests(wire: bool, chaos: bool) -> tuple[str, str]:
    app = Application(SSSPProgram("s"), EdgeStreamRouter(), name="sssp")
    job = TornadoJob(app, TornadoConfig(
        n_processors=3, report_interval=0.01, retransmit_timeout=0.1,
        storage_backend="memory", columnar_wire=wire,
        trace_enabled=True, seed=5))
    job.feed(edge_stream(PARITY_EDGES, UniformRate(rate=1000.0)))
    if chaos:
        job.failures.kill_at(0.08, "proc-1", recover_after=0.3)
    job.run_for(4.0)
    return job.trace.digest(), _digest(_distances(job))


def digest_parity_section() -> dict[str, Any]:
    report: dict[str, Any] = {}
    for name, chaos in (("steady", False), ("chaos", True)):
        off_trace, off_values = _traced_digests(False, chaos)
        on_trace, on_values = _traced_digests(True, chaos)
        report[name] = {
            "off": off_trace, "on": on_trace,
            "identical": (off_trace == on_trace
                          and off_values == on_values),
        }
    return report


# ------------------------------------------------------------------ runner
def run_wire(quick: bool = False,
             json_path: str | None = "BENCH_perf.json",
             check_baseline: bool = False,
             *, live_timeout: float = 120.0) -> ExperimentResult:
    """Run all four scenarios, merge the ``"wire"`` section into
    ``json_path`` and return the usual experiment report.
    ``check_baseline`` (CI) instead validates the *committed* full-size
    section against the floors, so a regression in the committed numbers
    fails the smoke job even though the job itself runs ``--quick``."""
    repeats = 1 if quick else 3
    leg_repeats = QUICK_REPEATS if quick else FULL_REPEATS
    leg = protocol_leg_section(leg_repeats)
    dense = dense_sim_section(QUICK_DAG if quick else FULL_DAG, repeats)
    live = live_wall_section(QUICK_LIVE if quick else FULL_LIVE, repeats,
                             live_timeout)
    parity = digest_parity_section()

    result = ExperimentResult(
        experiment="wire",
        title="Columnar wire: column runs vs per-row scatter messages",
        columns=["scenario", "events", "off_eps", "on_eps", "speedup"],
        notes=("protocol_leg isolates the message leg (non-improving "
               "offers, no prepare rounds); dense_sim and live_wall are "
               "end to end; every scenario also holds a byte-identity "
               "oracle (gate on may never change a result)"),
    )
    result.add_row(scenario="protocol_leg", events=leg["events"],
                   off_eps=leg["scalar"]["rows_per_s"],
                   on_eps=leg["column"]["rows_per_s"],
                   speedup=leg["speedup"])
    result.add_row(scenario="dense_sim", events=dense["on"]["tuples"],
                   off_eps=dense["off"]["tuples_per_s"],
                   on_eps=dense["on"]["tuples_per_s"],
                   speedup=dense["speedup"])
    result.add_row(scenario="live_wall", events=live["on"]["tuples"],
                   off_eps=live["off"]["tuples_per_s"],
                   on_eps=live["on"]["tuples_per_s"],
                   speedup=live["speedup"])

    floor = QUICK_PROTOCOL_FLOOR if quick else PROTOCOL_FLOOR
    result.check(f"protocol leg ≥{floor}x on the column fast path",
                 leg["speedup"] >= floor,
                 f"speedup={leg['speedup']:.2f}x over {leg['events']} "
                 "rows")
    result.check("protocol leg leaves byte-identical state either path",
                 leg["state_match"])
    result.check("column fast path actually engaged",
                 leg["fast_rows"] >= leg["events"])
    result.check("dense sim: byte-identical ranks, gate on vs off",
                 dense["digest_match"], dense["digest"][:12] + "…")
    result.check("dense sim: the wire packs under the gate",
                 dense["packed_rows"] > 0,
                 f"{dense['packed_rows']} rows packed, "
                 f"{dense['fallback_rows']} fallback")
    result.check("live: identical canonical digests, gate on vs off",
                 live["digest_match"], live["digest"][:12] + "…")
    result.check("live: the wire packs under the gate (and only then)",
                 live["wire_rows"] > 0 and live["off_wire_rows"] == 0,
                 f"{live['wire_rows']} rows on, "
                 f"{live['off_wire_rows']} off")
    if not quick:
        result.check("live 2-worker wall clock improves under the gate",
                     live["speedup"] > 1.0,
                     f"speedup={live['speedup']:.2f}x")
    result.check("flight-recorder digests byte-identical (steady)",
                 parity["steady"]["identical"],
                 parity["steady"]["off"][:12] + "…")
    result.check("flight-recorder digests byte-identical (kill/recover)",
                 parity["chaos"]["identical"],
                 parity["chaos"]["off"][:12] + "…")

    report = {
        "bench": "columnar_wire",
        "version": 1,
        "quick": quick,
        "python": platform.python_version(),
        "protocol_leg": leg,
        "dense_sim": dense,
        "live": live,
        "digest_parity": parity,
    }
    result.extras["report"] = report

    if check_baseline:
        try:
            with open(json_path or "BENCH_perf.json",
                      encoding="utf-8") as handle:
                committed = json.load(handle).get("wire", {})
        except (OSError, json.JSONDecodeError):
            committed = {}
        committed_leg = committed.get("protocol_leg", {}).get("speedup",
                                                              0.0)
        committed_live = committed.get("live", {}).get("speedup", 0.0)
        parity_ok = all(
            committed.get("digest_parity", {}).get(k, {}).get("identical")
            for k in ("steady", "chaos"))
        committed_ok = (not committed.get("quick", True)
                        and committed_leg >= PROTOCOL_FLOOR
                        and committed_live > 1.0
                        and parity_ok)
        result.check(
            f"committed full-size baseline: protocol leg "
            f"≥{PROTOCOL_FLOOR}x, live improves, parity holds",
            committed_ok,
            f"committed leg={committed_leg}x live={committed_live}x")
    elif json_path is not None:
        merge_bench_json(json_path, {"wire": report})
    return result


def main(argv: list[str]) -> int:
    result = run_wire(quick="--quick" in argv,
                      check_baseline="--check-baseline" in argv)
    print(result.report())
    return 0 if result.all_checks_pass else 1


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main(sys.argv[1:]))
