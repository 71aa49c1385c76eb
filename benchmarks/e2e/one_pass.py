"""One pass of one workload, in this interpreter.

``run.py`` starts this file once per pass so that every pass gets a fresh
heap (see README.md, "Protocol").  A pass is

    set-up -> gc.collect() -> bulk section -> gc.collect() -> fresh section

and prints one JSON object: the pass's end-to-end numbers, its op verdicts
and, when traced, the layer ledger.  The cyclic GC stays enabled: its
gen-2 passes are a fifth of an ``sssp_sim`` pass and users pay them.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import resource
import statistics
import sys
import time
from typing import Any

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.core import Application, TornadoConfig, TornadoJob  # noqa: E402
from repro.errors import QueryError  # noqa: E402
from trace import Ledger  # noqa: E402
from workloads import BULK_BURSTS, WORKLOADS, Workload  # noqa: E402

#: ``job.gc`` cadence in the fresh section.  Without it 200 queries grow
#: the store to 1.2 GB RSS and the median op drifts 80 -> 122 ms.
GC_EVERY_OPS = 8
KEEP_BRANCHES = 2
#: How far virtual time advances between two ``job.quiescent()`` checks.
#: The check walks every vertex, so running it per event (as a
#: ``run_until`` predicate) would bill the benchmark's own polling to the
#: system; per virtual millisecond it is noise.
QUIESCE_SLICE_S = 1e-3
#: Virtual settle after the SVM burst: its main loop never quiesces.
SVM_SETTLE_S = 0.05
LIVE_TIMEOUT_S = 60.0


def build_job(workload: Workload, app: Application,
              seed: int) -> TornadoJob:
    # Only these five fields are set: every A/B gate stays at its default,
    # so a later "default = fast" flip is visible here and a deleted gate
    # field cannot break the benchmark.
    workers = workload.n_processors
    if workload.backend == "live":
        workers = min(workers, os.cpu_count() or 1)
    return TornadoJob(app, TornadoConfig(
        backend=workload.backend, n_processors=workers, seed=seed,
        report_interval=0.02, storage_backend="memory"))


def absorb(job: TornadoJob, workload: Workload, fed: int) -> None:
    """Advance until the ``fed`` tuples fed so far are absorbed."""
    if workload.backend == "live":
        job.run_until_converged(timeout=LIVE_TIMEOUT_S)
        return
    ingester = job.ingester
    # ``quiescent()`` ignores ingester -> processor inputs still in
    # flight, hence the transport check (README.md, hazard a).
    job.run_until(lambda: ingester.tuples_ingested >= fed
                  and ingester.transport.unacked == 0)
    if workload.quiesces:
        while not job.quiescent():
            job.run_for(QUIESCE_SLICE_S)


def fresh_op(job: TornadoJob, workload: Workload, delta: list,
             fed: int) -> Any:
    """Feed one delta and obtain a result that reflects it: a branch
    query on sim; on live, which rejects branch queries, the reconverged
    main loop is the result (verified after ``finalize``)."""
    job.feed(workload.stream(delta, job.sim.now))
    absorb(job, workload, fed)
    if workload.backend == "live":
        return None
    return job.wait_for_query(job.query())


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_pass(workload: Workload, seed: int, scale: float, traced: bool,
             spawned_at: float) -> dict:
    live = workload.backend == "live"
    app = workload.application()
    ledger = None
    if traced:
        ledger = Ledger()
        ledger.install(type(app.program))
    sizes = workload.sizes.scaled(scale)
    warm_prefix, warm_op, *blocks = workload.blocks(seed, sizes)
    bursts, deltas = blocks[:BULK_BURSTS], blocks[BULK_BURSTS:]
    built_at = time.perf_counter()
    job = build_job(workload, app, seed)
    results: list[tuple[int, Any]] = []
    failed_ops = 0
    try:
        # ------------------------------------------------------- set-up
        fed = len(warm_prefix)
        job.feed(workload.stream(warm_prefix, job.sim.now))
        absorb(job, workload, fed)
        fed += len(warm_op)
        fresh_op(job, workload, warm_op, fed)
        spawn_s = time.perf_counter() - built_at
        gc.collect()
        if ledger is not None:
            ledger.reset()
        gc_before = gc.get_stats()[2]
        events_before = 0 if live else job.sim.events_processed
        setup_s = time.time() - spawned_at
        cpu_before = time.process_time()

        # --------------------------------------------------------- bulk
        sections_started = started = time.perf_counter()
        for burst in bursts:
            fed += len(burst)
            job.feed(workload.stream(burst, job.sim.now))
            absorb(job, workload, fed)
        if not workload.quiesces:
            job.run_for(SVM_SETTLE_S)
        bulk_s = time.perf_counter() - started
        gc.collect()

        # -------------------------------------------------------- fresh
        latencies: list[float] = []
        virtual: list[float] = []
        versions_peak = bytes_peak = 0
        for op, delta in enumerate(deltas):
            fed += len(delta)
            virtual_start = job.sim.now
            started = time.perf_counter()
            try:
                result = fresh_op(job, workload, delta, fed)
            except QueryError:
                result = None
                failed_ops += 1
            latencies.append(time.perf_counter() - started)
            if result is not None:
                virtual.append(result.completed_at - virtual_start)
                results.append((fed, workload.compact(result.values)))
                del result     # free the full result before the next op
            if op % GC_EVERY_OPS == GC_EVERY_OPS - 1:
                # Outside the op timer, inside cpu_s.  The store peaks
                # right before its housekeeping; version_count() settles
                # pending chains just as the truncation below would, so
                # sampling it here does not change what the pass does.
                if ledger is not None:
                    versions_peak = max(versions_peak,
                                        job.store.version_count())
                    bytes_peak = max(bytes_peak, job.store.approx_bytes())
                job.gc(keep_last_branches=KEEP_BRANCHES)
        sections_wall_s = time.perf_counter() - sections_started
        sections_cpu_s = time.process_time() - cpu_before
        gc_after = gc.get_stats()[2]
        if ledger is not None:
            ledger.close()
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if live:
            job.finalize()
        results.append((fed, workload.compact(job.main_values())))
    finally:
        if live:
            job.shutdown()

    cpu_s = sections_cpu_s
    if live:
        # Workers are reaped now; their CPU covers their whole life
        # (spawn and warm prefix included) - rusage has no finer grain.
        cpu_s += children_cpu_s()
        peak_rss_kb += resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss
    items = warm_prefix + warm_op + [item for block in blocks
                                     for item in block]
    verdicts = workload.verify(items, results)
    if not verdicts[-1]:
        failed_ops = sizes.ops       # wrong final state fails the pass
    else:
        failed_ops += verdicts[:-1].count(False)
    latencies.sort()
    out = {
        "attempted": sizes.ops,
        "failed": failed_ops,
        "metrics": {
            "setup_s": setup_s,
            "ingest_tuples_per_s": sizes.bulk / bulk_s,
            "fresh_p50_ms": 1e3 * statistics.median(latencies),
            # The highest percentile with ten samples beyond it at 100 ops.
            "fresh_p90_ms": 1e3 * latencies[-(len(latencies) // 10) - 1],
            "cpu_s": cpu_s,
            "peak_rss_mb": peak_rss_kb / 1024.0,
        },
        "sections_wall_s": sections_wall_s,
        # Exact on sim (same seed => same value in every pass).
        "counts": {
            "simulator.events": (0 if live else
                                 job.sim.events_processed - events_before),
            "core.commits": job.total_commits,
            "runtime.gc_gen2_count": (gc_after["collections"]
                                      - gc_before["collections"]),
            "runtime.gc_collected": (gc_after["collected"]
                                     - gc_before["collected"]),
        },
    }
    if ledger is not None:
        out["layers"] = dict(out["counts"], **layer_metrics(
            job, ledger, live, tuples=sizes.total, virtual=virtual,
            spawn_s=spawn_s, wall_s=sections_wall_s,
            master_cpu_s=sections_cpu_s,
            versions_peak=versions_peak, bytes_peak=bytes_peak))
    return out


def layer_metrics(job: TornadoJob, ledger: Ledger, live: bool, *,
                  tuples: int, virtual: list[float], spawn_s: float,
                  wall_s: float, master_cpu_s: float,
                  versions_peak: int, bytes_peak: int) -> dict:
    """The per-layer metrics of BENCHMARK.json: times from the ledger,
    counts from the system's own counters."""
    counters = job.metrics.snapshot()
    store = job.store

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    layers = {
        "simulator.kernel_self_s": ledger.self_s("simulator.kernel"),
        "simulator.network.sent": 0 if live else job.network.stats.sent,
        "simulator.network.send_s": ledger.self_s("simulator.network.send"),
        "simulator.virtual_fresh_p50_ms":
            1e3 * statistics.median(virtual) if virtual else 0.0,
        "core.ingester.tuples": job.ingester.tuples_ingested,
        "core.ingester.handle_s": ledger.self_s("core.ingester"),
        "core.processor.messages": 0 if live else sum(
            processor.messages_handled for processor in job.processors),
        "core.processor.self_s": ledger.self_s("core.processor"),
        "core.prepares_sent": job.total_prepares,
        "core.updates_gathered": job.total_updates_gathered,
        "core.acks_sent": counters.get("core.acks_sent", 0.0),
        "core.scatter_batches": counters.get("core.scatter_batches", 0.0),
        "core.scatter_merge_ratio": ratio(
            counters.get("core.scatter_merged", 0.0),
            counters.get("core.scatter_buffered", 0.0)),
        "core.transport.envelopes": ledger.calls("core.transport.send"),
        "core.transport.send_s": ledger.self_s("core.transport.send"),
        "core.transport.recv_s": ledger.self_s("core.transport.recv"),
        "core.transport.retransmits": sum(
            endpoint.retransmissions for endpoint in job.endpoints()),
        "core.master.reports": ledger.calls("core.master"),
        "core.master.self_s": ledger.self_s("core.master"),
        "core.iterations_terminated":
            counters.get("core.iterations_terminated", 0.0),
        "core.branches_forked": counters.get("core.branches_forked", 0.0),
        "core.branches_converged":
            counters.get("core.branches_converged", 0.0),
        "storage.puts": store.puts,
        "storage.put_s": ledger.self_s("storage.put"),
        "storage.reads": store.reads,
        "storage.read_s": ledger.self_s("storage.read"),
        "storage.snapshot_s": ledger.self_s("storage.snapshot"),
        "storage.snapshot_cache_hit_ratio": ratio(
            store.cache_hits, store.cache_hits + store.cache_misses),
        "storage.rebases": store.rebases,
        "storage.versions_peak": versions_peak or store.version_count(),
        "storage.approx_bytes_peak": bytes_peak or store.approx_bytes(),
        "storage.gc_s": ledger.self_s("storage.gc"),
        "algorithms.calls": ledger.calls("algorithms"),
        "algorithms.program_s": ledger.self_s("algorithms"),
        "runtime.gc_gen2_s": ledger.gc_gen2_s,
        "runtime.gc_s": ledger.self_s("runtime.gc"),
        "trace.coverage": ratio(ledger.total_self_s(), wall_s),
    }
    # Worker side of live: FinalReports and the reaped children's rusage.
    pickle_us, frame_bytes = wire_probe(ledger.frames)
    if live:
        layers["core.transport.retransmits"] += sum(
            report.retransmissions for report in job.reports.values())
    layers.update({
        "live.master.frames": ledger.calls("live.master.forward"),
        "live.master.route_s": (ledger.self_s("live.master.send")
                                + ledger.self_s("live.master.forward")),
        "live.master.pump_self_s": ledger.self_s("live.master.pump"),
        "live.master.store_replay_s":
            ledger.self_s("storage.put") if live else 0.0,
        "live.master.pump_idle_share":
            1.0 - ratio(master_cpu_s, wall_s) if live else 0.0,
        "live.worker.cpu_s": children_cpu_s(),
        "live.worker.spawn_s": spawn_s if live else 0.0,
        "live.commits_per_tuple":
            ratio(job.total_commits, tuples) if live else 0.0,
        "live.wire.pickle_us_per_frame": pickle_us,
        "live.wire.bytes_per_frame": frame_bytes,
    })
    return layers


def wire_probe(frames: list) -> tuple[float, float]:
    """Microseconds to pickle and unpickle, and bytes on the wire, per
    frame the traced live pass routed (0, 0 without frames)."""
    if not frames:
        return 0.0, 0.0
    blobs = [pickle.dumps(frame, pickle.HIGHEST_PROTOCOL)
             for frame in frames]
    started = time.perf_counter()
    for frame in frames:
        pickle.dumps(frame, pickle.HIGHEST_PROTOCOL)
    for blob in blobs:
        pickle.loads(blob)
    probe_s = time.perf_counter() - started
    return (1e6 * probe_s / len(frames),
            sum(map(len, blobs)) / len(frames))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() just before this interpreter "
                             "was started (setup_s counts from there)")
    args = parser.parse_args()
    out = run_pass(WORKLOADS[args.workload], args.seed, args.scale,
                   bool(args.traced), args.spawned_at)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
