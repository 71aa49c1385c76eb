"""Seeded synthetic dataset generators (the paper's Table 1, scaled)."""

from repro.datagen.graphs import degree_histogram, livejournal_like, rmat_edges
from repro.datagen.instances import higgs_like, pubmed_like
from repro.datagen.points import gaussian_mixture

__all__ = [
    "degree_histogram",
    "gaussian_mixture",
    "higgs_like",
    "livejournal_like",
    "pubmed_like",
    "rmat_edges",
]
