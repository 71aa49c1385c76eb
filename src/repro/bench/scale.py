"""Million-vertex scale benchmark: the columnar state engine A/B-ed
against the object store.

The protocol benches (``perf``, ``delta``, ``live``) measure the
simulated runtime end to end; this one isolates the layer the columnar
tentpole targets — **state apply**: committing each iteration's vertex
versions into the versioned store.  A 10⁶-vertex R-MAT graph is driven
through PageRank / SSSP / connected-components sweeps by the bulk
engine (:class:`repro.core.columnar.BulkRunner` — ``bincount`` /
``np.minimum.at`` passes over flat edge arrays), and every sweep's
changed vertices are committed twice, into:

* the **object store** (the default — per-key Python chains, the
  baseline every prior PR optimised), and
* the **columnar store** (``columnar=True`` — one ``put_columns``
  column slab per sweep, folded by batched rebases).

Both stores receive byte-identical ``(key, iteration, value)`` data, and
the bench checks the final snapshots agree, so the speedup is purely the
layout.  Timing runs without tracemalloc; a second, untimed population
pass per layout records the tracemalloc peak — the memory axis of the
committed curve.  Output merges a ``"scale"`` section (per-iteration
wall-clock + rows, per-layout apply throughput and peak memory) into
``BENCH_perf.json``::

    python -m repro.bench scale [--quick]

``--check-baseline`` (the CI scale-smoke job) additionally requires a
committed full-size ``"scale"`` section in BENCH_perf.json whose
speedups meet the ≥5× acceptance floor.
"""

from __future__ import annotations

import json
import platform
import sys
import time
import tracemalloc
from typing import Any, Callable, Iterable

import numpy as np

from repro.bench.harness import ExperimentResult, merge_bench_json
from repro.core.columnar import BulkRunner
from repro.datagen.graphs import rmat_edges_fast
from repro.storage.versioned import VersionedStore

#: (n_vertices, n_edges): full = the 10⁶-vertex acceptance size, quick =
#: CI smoke.  Edge factor 4 keeps R-MAT's power law while the graph
#: still fits a laptop.
FULL_SCALE = (1 << 20, 4 << 20)
QUICK_SCALE = (1 << 14, 4 << 14)
PAGERANK_SWEEPS = 5
MAX_SWEEPS = 30
#: Apply-throughput speedup floors, columnar over the object store:
#: the acceptance floor at full size, looser in CI smoke (shared
#: runners; small slabs amortise less).
APPLY_FLOOR = 5.0
QUICK_APPLY_FLOOR = 2.0


def _graph(n_vertices: int, n_edges: int, seed: int
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    src, dst = rmat_edges_fast(n_vertices, n_edges, rng)
    weights = rng.integers(1, 10, size=len(src)).astype(np.float64)
    return src, dst, weights


def _sweep_steps(name: str, n_vertices: int, src: np.ndarray,
                 dst: np.ndarray, weights: np.ndarray
                 ) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Materialise one workload's sweep steps once; every store layout
    then replays the identical slabs."""
    runner = BulkRunner(store=None)
    if name == "pagerank":
        sweep: Iterable = runner.pagerank_sweep(
            n_vertices, src, dst, sweeps=PAGERANK_SWEEPS)
    elif name == "sssp":
        sweep = runner.sssp_sweep(n_vertices, src, dst, weights, root=0,
                                  max_sweeps=MAX_SWEEPS)
    elif name == "components":
        sweep = runner.components_sweep(n_vertices, src, dst,
                                        max_sweeps=MAX_SWEEPS)
    else:  # pragma: no cover - guarded by the workload list
        raise ValueError(name)
    return list(sweep)


def _make_store(columnar: bool) -> VersionedStore:
    return VersionedStore(columnar=columnar)


def _apply_steps(store: VersionedStore,
                 steps: list[tuple[int, np.ndarray, np.ndarray]],
                 timed: bool) -> dict[str, Any]:
    """Replay the sweep slabs into one store, timing each iteration's
    apply (the curve) when ``timed``.

    The columnar side applies each step as one ``put_columns`` slab; the
    object-store baseline gets the same data as native Python triples
    through ``put_many`` (pre-converted outside the timed region — the
    scalar protocol path writes plain Python objects, so charging the
    baseline for numpy unboxing would flatter the columnar side)."""
    runner = BulkRunner(store)
    if not store.columnar:
        scalar_steps = [(iteration, changed.tolist(), values.tolist())
                        for iteration, changed, values in steps]
    curve = []
    rows = 0
    apply_s = 0.0
    for index, (iteration, changed, values) in enumerate(steps):
        started = time.perf_counter() if timed else 0.0
        if store.columnar:
            count = runner.apply(iteration, changed, values)
        else:
            _it, keys, plain = scalar_steps[index]
            count = store.put_many(
                runner.loop,
                ((key, iteration, value)
                 for key, value in zip(keys, plain)))
        if timed:
            elapsed = time.perf_counter() - started
            curve.append({"iteration": iteration, "rows": count,
                          "apply_s": elapsed})
            apply_s += elapsed
        rows += count
    return {"rows": rows, "apply_s": apply_s, "curve": curve,
            "rows_per_s": rows / apply_s if apply_s else 0.0,
            "store": store, "runner": runner}


def _peak_memory_mb(make_run: Callable[[], Any]) -> float:
    """tracemalloc peak of one untimed population pass (tracemalloc
    skews timings, so memory gets its own pass)."""
    tracemalloc.start()
    try:
        make_run()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6


def _snapshot_digest(view: dict[Any, Any]) -> tuple[int, float]:
    """Cheap equality witness over a big snapshot: size + value sum
    (values are floats/ints; identical data ⇒ identical sums)."""
    total = 0.0
    for value in view.values():
        total += float(value)
    return len(view), total


def _run_workload(name: str, n_vertices: int, n_edges: int,
                  seed: int) -> dict[str, Any]:
    src, dst, weights = _graph(n_vertices, n_edges, seed)
    steps = _sweep_steps(name, n_vertices, src, dst, weights)

    sides: dict[str, dict[str, Any]] = {}
    for side, columnar in (("delta", False), ("columnar", True)):
        run = _apply_steps(_make_store(columnar), steps, timed=True)
        run["peak_mb"] = _peak_memory_mb(
            lambda c=columnar: _apply_steps(_make_store(c), steps,
                                            timed=False))
        started = time.perf_counter()
        view = run["store"].snapshot(run["runner"].loop)
        run["snapshot_s"] = time.perf_counter() - started
        run["digest"] = _snapshot_digest(view)
        run["versions"] = run["store"].version_count()
        sides[side] = run

    delta, columnar = sides["delta"], sides["columnar"]
    speedup = (columnar["rows_per_s"] / delta["rows_per_s"]
               if delta["rows_per_s"] else 0.0)
    strip = ("store", "runner")
    return {
        "name": name,
        "n_vertices": n_vertices,
        "n_edges": n_edges,
        "sweeps": len(steps),
        "rows": delta["rows"],
        "apply_speedup": speedup,
        "memory_ratio": (delta["peak_mb"] / columnar["peak_mb"]
                         if columnar["peak_mb"] else 0.0),
        "snapshots_match": (delta["digest"] == columnar["digest"]
                            and delta["versions"] == columnar["versions"]),
        "delta": {k: v for k, v in delta.items() if k not in strip},
        "columnar": {k: v for k, v in columnar.items() if k not in strip},
    }


def _load_json(json_path: str) -> dict[str, Any]:
    try:
        with open(json_path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError):
        return {}


def run_scale(quick: bool = False,
              json_path: str | None = "BENCH_perf.json",
              *, size: tuple[int, int] | None = None,
              check_baseline: bool = False,
              seed: int = 42) -> ExperimentResult:
    """Run the scale A/B, merge the ``"scale"`` section into
    ``json_path`` and return the experiment report.  ``size`` overrides
    shrink below ``--quick`` for the test suite.  ``check_baseline``
    (CI) validates the *committed* full-size section instead of
    overwriting it."""
    n_vertices, n_edges = size or (QUICK_SCALE if quick else FULL_SCALE)
    workloads = [_run_workload(name, n_vertices, n_edges, seed)
                 for name in ("pagerank", "sssp", "components")]
    by_name = {w["name"]: w for w in workloads}

    result = ExperimentResult(
        experiment="scale",
        title=(f"Columnar state engine at {n_vertices} vertices / "
               f"{n_edges} edges: state-apply rows/sec, columnar vs "
               f"delta object store"),
        columns=["workload", "sweeps", "rows", "delta_rps",
                 "columnar_rps", "speedup", "mem_ratio"],
        notes=("identical slabs applied to both layouts; rows/sec is "
               "store state-apply throughput (compute excluded); "
               "mem_ratio = delta peak / columnar peak (tracemalloc)"),
    )
    for workload in workloads:
        result.add_row(workload=workload["name"],
                       sweeps=workload["sweeps"],
                       rows=workload["rows"],
                       delta_rps=workload["delta"]["rows_per_s"],
                       columnar_rps=workload["columnar"]["rows_per_s"],
                       speedup=workload["apply_speedup"],
                       mem_ratio=workload["memory_ratio"])

    result.check("identical snapshots + version counts, both layouts",
                 all(w["snapshots_match"] for w in workloads))
    floor = QUICK_APPLY_FLOOR if quick else APPLY_FLOOR
    pagerank = by_name["pagerank"]
    result.check(
        f"pagerank state-apply ≥{floor}x columnar over delta"
        + (" (smoke)" if quick else ""),
        pagerank["apply_speedup"] >= floor,
        f"speedup={pagerank['apply_speedup']:.2f}x")
    result.check("sssp state-apply no slower on the columnar layout",
                 by_name["sssp"]["apply_speedup"] >= 1.0,
                 f"speedup={by_name['sssp']['apply_speedup']:.2f}x")
    result.check("columnar peak memory below the object store's",
                 pagerank["memory_ratio"] > 1.0,
                 f"delta/columnar={pagerank['memory_ratio']:.2f}x")

    report = {
        "bench": "columnar_scale",
        "version": 1,
        "quick": quick,
        "python": platform.python_version(),
        "n_vertices": n_vertices,
        "n_edges": n_edges,
        "workloads": {w["name"]: {k: w[k] for k in
                                  ("sweeps", "rows", "apply_speedup",
                                   "memory_ratio", "snapshots_match",
                                   "delta", "columnar")}
                      for w in workloads},
    }
    result.extras["report"] = report

    if check_baseline:
        committed = _load_json(json_path or "BENCH_perf.json"
                               ).get("scale", {})
        committed_pr = committed.get("workloads", {}).get("pagerank", {})
        committed_speedup = committed_pr.get("apply_speedup", 0.0)
        committed_ok = (not committed.get("quick", True)
                        and committed_speedup >= APPLY_FLOOR)
        result.check(
            f"committed full-size baseline meets the ≥{APPLY_FLOOR}x "
            "acceptance floor",
            committed_ok,
            f"committed pagerank speedup={committed_speedup}")
    elif json_path is not None:
        merge_bench_json(json_path, {"scale": report})
    return result


def main(argv: list[str]) -> int:
    result = run_scale(quick="--quick" in argv,
                       check_baseline="--check-baseline" in argv)
    print(result.report())
    return 0 if result.all_checks_pass else 1


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main(sys.argv[1:]))
