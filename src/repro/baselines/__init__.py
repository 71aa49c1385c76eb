"""Baseline systems: batch engines and a Naiad-like incremental engine —
the comparators of the paper's evaluation."""

from repro.baselines.engines import (BatchEngine, EngineCosts, EngineRun,
                                     MemoryBudgetExceeded, NaiadLikeEngine,
                                     graphlab_like, spark_like)
from repro.baselines.solvers import (GradientDescentSolver, KMeansSolver,
                                     PageRankSolver, Solver, SSSPSolver,
                                     WorkStats)

__all__ = [
    "BatchEngine",
    "EngineCosts",
    "EngineRun",
    "GradientDescentSolver",
    "KMeansSolver",
    "MemoryBudgetExceeded",
    "NaiadLikeEngine",
    "PageRankSolver",
    "Solver",
    "SSSPSolver",
    "WorkStats",
    "graphlab_like",
    "spark_like",
]
