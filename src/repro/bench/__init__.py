"""Benchmark harness: one experiment module per paper table/figure."""

from repro.bench.ablations import (run_ablation_activation,
                                   run_ablation_sampling,
                                   run_ablation_storage)
from repro.bench.fig5 import run_fig5
from repro.bench.fig6 import run_fig6a, run_fig6b
from repro.bench.fig7 import run_fig7a, run_fig7b
from repro.bench.fig8 import run_failure_figure, run_fig8b
from repro.bench.fig9 import run_fig9
from repro.bench.harness import ExperimentResult, ShapeCheck, percentile
from repro.bench.live import run_live_bench
from repro.bench.skew import run_skew
from repro.bench.table1 import run_table1
from repro.bench.table2 import run_fig8a, run_table2
from repro.bench.table3 import run_table3
from repro.bench.workloads import (MEDIUM, SMALL, Scale, kmeans_bundle,
                                   logreg_bundle, pagerank_bundle,
                                   sssp_bundle, svm_bundle)

__all__ = [
    "ExperimentResult",
    "MEDIUM",
    "SMALL",
    "Scale",
    "ShapeCheck",
    "kmeans_bundle",
    "logreg_bundle",
    "pagerank_bundle",
    "percentile",
    "run_ablation_activation",
    "run_ablation_sampling",
    "run_ablation_storage",
    "run_failure_figure",
    "run_fig5",
    "run_fig6a",
    "run_fig6b",
    "run_fig7a",
    "run_fig7b",
    "run_fig8a",
    "run_fig8b",
    "run_fig9",
    "run_live_bench",
    "run_skew",
    "run_table1",
    "run_table2",
    "run_table3",
    "sssp_bundle",
    "svm_bundle",
]
