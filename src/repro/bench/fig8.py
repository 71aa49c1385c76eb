"""Figure 8b-d: asynchronism under stragglers and failures.

8b — LR objective over time per delay bound with a straggler processor:
the synchronous loop waits for the slowest worker every iteration, while
the loop with the largest bound keeps updating the model.

8c — master failure: updates/second over time.  The synchronous loop
stalls as soon as termination notices stop; a bounded loop (B=256) runs on
until every update hits the delay frontier; the B=65536 loop finishes
unaffected because it never reaches the bound.  All resume after recovery.

8d — single-processor failure: every loop eventually stalls as the failed
processor's silence propagates through the dependency graph, and resumes
after recovery.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import StaticRate
from repro.algorithms.sgd import PARAM, HingeLoss
from repro.bench.harness import ExperimentResult
from repro.bench.workloads import SMALL, Scale, sssp_bundle, svm_bundle
from repro.core import TornadoJob
from repro.obs import phase_counts, render_phase_table

DELAY_BOUNDS = (1, 256, 65536)


def run_fig8b(scale: Scale = SMALL,
              delay_bounds: tuple[int, ...] = DELAY_BOUNDS,
              duration: float = 3.0, dt: float = 0.25,
              straggler_factor: float = 8.0) -> ExperimentResult:
    """LR/SVM objective vs time per delay bound, with one straggler."""
    loss = HingeLoss(l2=1e-3)
    result = ExperimentResult(
        experiment="fig8b",
        title="SGD objective under stragglers per delay bound",
        columns=["delay_bound", "time_s", "objective"],
    )
    final: dict[int, float] = {}
    for bound in delay_bounds:
        bundle = svm_bundle(scale, batch_size=32, delay_bound=bound,
                            schedule_factory=lambda: StaticRate(0.1),
                            report_interval=0.01)
        job = bundle.job
        job.processors[0].speed_factor = straggler_factor
        instances = bundle.extras["instances"]
        xs = np.stack([inst.x() for inst in instances])
        ys = np.asarray([inst.label for inst in instances], dtype=float)
        job.feed(bundle.stream)
        steps = int(round(duration / dt))
        objective = float("inf")
        for _ in range(steps):
            job.run_for(dt)
            param = job.main_values().get(PARAM)
            if param is None:
                continue
            objective = loss.objective(param.weights, xs, ys)
            result.add_row(delay_bound=bound,
                           time_s=round(job.sim.now, 3),
                           objective=objective)
        final[bound] = objective
    sync, widest = delay_bounds[0], delay_bounds[-1]
    result.check(
        "async loop reaches a lower objective under stragglers",
        final[widest] <= final[sync],
        f"final objectives: {[(b, round(final[b], 4)) for b in final]}")
    return result


def _failure_run(kind: str, bound: int, scale: Scale, dt: float,
                 fail_delay: float, recover_after: float,
                 horizon: float, trace: bool = False
                 ) -> tuple[list[tuple[float, float]], bool, TornadoJob]:
    """Run one SSSP *branch loop* (the paper's §6.3.2 setup: from the
    default guess, half the stream ingested), kill the master or a
    processor mid-run, and sample updates/second.  Returns the rate
    series (times relative to the fork), whether the branch converged
    within the horizon, and the finished job (whose flight recorder holds
    the run's trace when ``trace`` is set)."""
    bundle = sssp_bundle(scale, delay_bound=bound,
                         main_loop_mode="batch", merge_policy="never",
                         report_interval=0.01, trace_enabled=trace,
                         # Inflate per-update compute so the branch runs
                         # long enough for the outage to land mid-flight.
                         gather_cost=5e-3)
    job = bundle.job
    job.feed(bundle.stream)
    cutoff = len(bundle.stream) // 2
    job.run_until(lambda: job.ingester.tuples_ingested >= cutoff)
    query_id = job.query(full_activation=True)
    started = job.sim.now
    target = TornadoJob.MASTER if kind == "master" else "proc-1"
    job.failures.kill_at(started + fail_delay, target,
                         recover_after=recover_after)
    series: list[tuple[float, float]] = []
    previous = job.total_commits
    while job.sim.now < started + horizon:
        job.run_for(dt)
        current = job.total_commits
        series.append((job.sim.now - started, (current - previous) / dt))
        previous = current
        if job.ingester.query_done(query_id):
            break
    # Let any still-running branch finish within the remaining horizon.
    done = job.ingester.query_done(query_id)
    return series, done, job


def run_failure_figure(kind: str, scale: Scale = SMALL,
                       delay_bounds: tuple[int, ...] = DELAY_BOUNDS,
                       dt: float = 0.1, fail_delay: float = 0.3,
                       recover_after: float = 1.2,
                       horizon: float = 20.0,
                       trace: bool = False) -> ExperimentResult:
    """Shared driver for Figures 8c (master) and 8d (processor).

    With ``trace=True`` every run records into its flight recorder, and
    the per-iteration protocol-phase counts (updates/prepares/acks/
    commits) land in ``result.extras["phase_counts"]`` /
    ``result.extras["phase_tables"]`` — the recorder-side explanation of
    where each loop stalls during the outage.
    """
    assert kind in ("master", "processor")
    label = "master" if kind == "master" else "single processor"
    result = ExperimentResult(
        experiment="fig8c" if kind == "master" else "fig8d",
        title=f"Branch-loop updates per second across a {label} failure",
        columns=["delay_bound", "time_s", "updates_per_s"],
    )
    series: dict[int, list[tuple[float, float]]] = {}
    converged: dict[int, bool] = {}
    for bound in delay_bounds:
        samples, done, job = _failure_run(kind, bound, scale, dt,
                                          fail_delay, recover_after,
                                          horizon, trace=trace)
        series[bound] = samples
        converged[bound] = done
        if trace:
            result.extras.setdefault("phase_counts", {})[bound] = (
                phase_counts(job.trace))
            result.extras.setdefault("phase_tables", {})[bound] = (
                render_phase_table(job.trace))
            result.extras.setdefault("trace_digests", {})[bound] = (
                job.trace.digest())
        for at, rate in samples:
            result.add_row(delay_bound=bound, time_s=round(at, 3),
                           updates_per_s=rate)

    def rate_during_outage(bound: int) -> float:
        window = [rate for at, rate in series[bound]
                  if fail_delay + 2 * dt < at
                  <= fail_delay + recover_after]
        return float(np.mean(window)) if window else 0.0

    sync, widest = delay_bounds[0], delay_bounds[-1]
    if kind == "master":
        result.check(
            "synchronous loop stalls during the master outage",
            rate_during_outage(sync) < 1.0,
            f"B={sync} outage rate={rate_during_outage(sync):.1f}/s")
        result.check(
            "largest-bound loop keeps updating through the outage",
            rate_during_outage(widest) > max(1.0,
                                             rate_during_outage(sync)),
            f"B={widest} outage rate={rate_during_outage(widest):.1f}/s")
    else:
        result.check(
            "every loop slows during the processor outage",
            all(rate_during_outage(b) < max(
                (rate for at, rate in series[b] if at <= fail_delay),
                default=1.0)
                for b in delay_bounds),
            str({b: round(rate_during_outage(b), 1)
                 for b in delay_bounds}))
    result.check(
        "every branch converges despite the failure",
        all(converged.values()),
        str(converged))
    return result
