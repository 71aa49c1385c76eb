"""Workload implementations: vertex programs, routers and oracles."""

from repro.algorithms.components import reference_components
from repro.algorithms.graph_common import EdgeStreamRouter, edge_parts
from repro.algorithms.kmeans import (KMeansProgram, PointRouter,
                                     reference_kmeans)
from repro.algorithms.logreg import logreg_application
from repro.algorithms.pagerank import (PageRankProgram, PageRankValue,
                                       reference_pagerank)
from repro.algorithms.schedules import (BoldDriver, DescentSchedule,
                                        StaticRate)
from repro.algorithms.sgd import (HingeLoss, Instance, InstanceRouter,
                                  LogisticLoss, Loss, SGDProgram)
from repro.algorithms.sssp import SSSPProgram, SSSPValue, reference_sssp
from repro.algorithms.svm import svm_application

__all__ = [
    "BoldDriver",
    "DescentSchedule",
    "EdgeStreamRouter",
    "HingeLoss",
    "Instance",
    "InstanceRouter",
    "KMeansProgram",
    "LogisticLoss",
    "Loss",
    "PageRankProgram",
    "PageRankValue",
    "PointRouter",
    "SGDProgram",
    "SSSPProgram",
    "SSSPValue",
    "StaticRate",
    "edge_parts",
    "logreg_application",
    "reference_components",
    "reference_kmeans",
    "reference_pagerank",
    "reference_sssp",
    "svm_application",
]
