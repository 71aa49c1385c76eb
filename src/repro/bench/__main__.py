"""Run the full experiment harness and print every table/figure.

Usage::

    python -m repro.bench                 # all experiments, small scale
    python -m repro.bench --medium        # larger scale (slower)
    python -m repro.bench fig5 table2     # a subset
    python -m repro.bench --trace fig8c   # record + print protocol phases
    python -m repro.bench skew            # planted hot-key skew: live
                                          # migration vs no rebalancing
    python -m repro.bench live            # multiprocessing backend scaling
                                          # (merges into BENCH_perf.json)
"""

from __future__ import annotations

import sys
import time
from typing import Callable

from repro.bench import (MEDIUM, SMALL, run_ablation_activation,
                         run_ablation_sampling, run_ablation_storage,
                         run_failure_figure, run_fig5, run_fig6a,
                         run_fig6b, run_fig7a, run_fig7b, run_fig8a,
                         run_fig8b, run_fig9, run_live_bench,
                         run_skew, run_table1, run_table2, run_table3)
from repro.bench.harness import ExperimentResult


def _experiments(scale, trace: bool = False, quick: bool = False
                 ) -> dict[str, Callable[[], ExperimentResult]]:
    return {
        "table1": lambda: run_table1(scale),
        "fig5-sssp": lambda: run_fig5("sssp", scale),
        "fig5-pagerank": lambda: run_fig5("pagerank", scale),
        "fig5-kmeans": lambda: run_fig5("kmeans", scale),
        "fig6a": lambda: run_fig6a(scale),
        "fig6b": lambda: run_fig6b(scale),
        "fig7a": lambda: run_fig7a(scale),
        "fig7b": lambda: run_fig7b(scale),
        "table2": lambda: run_table2(scale),
        "fig8a": lambda: run_fig8a(scale),
        "fig8b": lambda: run_fig8b(scale),
        "fig8c": lambda: run_failure_figure("master", scale, trace=trace),
        "fig8d": lambda: run_failure_figure("processor", scale,
                                            trace=trace),
        "fig9": lambda: run_fig9(scale),
        "skew": lambda: run_skew(),
        "table3": lambda: run_table3(scale),
        "ablation-activation": lambda: run_ablation_activation(scale),
        "ablation-sampling": lambda: run_ablation_sampling(scale),
        "ablation-storage": lambda: run_ablation_storage(scale),
        # Wall-clock benchmark; writes/merges BENCH_perf.json.  Only run
        # when asked for by name (see main below): unlike the rest it
        # measures the host machine, not the simulated cluster.
        "live": lambda: run_live_bench(quick=quick),
    }


def main(argv: list[str]) -> int:
    scale = MEDIUM if "--medium" in argv else SMALL
    trace = "--trace" in argv
    quick = "--quick" in argv
    wanted = [a for a in argv if not a.startswith("-")]
    experiments = _experiments(scale, trace=trace, quick=quick)
    if not wanted:
        experiments.pop("live")
    if wanted:
        unknown = [w for w in wanted
                   if not any(k.startswith(w) for k in experiments)]
        if unknown:
            print(f"unknown experiments: {unknown}")
            print(f"available: {sorted(experiments)}")
            return 2
        experiments = {k: v for k, v in experiments.items()
                       if any(k.startswith(w) for w in wanted)}
    failures = 0
    for name, runner in experiments.items():
        started = time.perf_counter()
        result = runner()
        elapsed = time.perf_counter() - started
        print(result.report())
        for bound, table in sorted(
                result.extras.get("phase_tables", {}).items()):
            print(f"-- protocol phases (delay bound {bound}) --")
            print(table)
        print(f"(wall time: {elapsed:.1f}s)")
        print()
        if not result.all_checks_pass:
            failures += 1
    if failures:
        print(f"{failures} experiment(s) had failing shape checks")
        return 1
    print("all shape checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
