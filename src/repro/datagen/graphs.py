"""Synthetic graph generation (stands in for LiveJournal, Table 1).

R-MAT recursively drops edges into an adjacency matrix quadrant by
quadrant, producing the power-law degree distributions of social graphs.
The generator is fully seeded and returns plain edge lists that the stream
sources can turn into (retractable) edge streams.
"""

from __future__ import annotations

import numpy as np


def rmat_edges(n_vertices: int, n_edges: int, rng: np.random.Generator,
               a: float = 0.57, b: float = 0.19, c: float = 0.19,
               self_loops: bool = False,
               deduplicate: bool = True) -> list[tuple[int, int]]:
    """Generate a directed R-MAT graph.

    ``n_vertices`` is rounded up to the next power of two internally; edge
    endpoints are then mapped back below ``n_vertices``.
    """
    if n_vertices < 2:
        raise ValueError("need at least 2 vertices")
    if not 0 < a + b + c < 1:
        raise ValueError("quadrant probabilities must sum below 1")
    scale = int(np.ceil(np.log2(n_vertices)))
    probabilities = np.array([a, b, c, 1.0 - a - b - c])
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    # Oversample to survive dedup / self-loop rejection.
    budget = n_edges * 4 + 64
    while len(edges) < n_edges and budget > 0:
        budget -= 1
        u = v = 0
        for _level in range(scale):
            quadrant = int(rng.choice(4, p=probabilities))
            u = (u << 1) | (quadrant >> 1)
            v = (v << 1) | (quadrant & 1)
        u %= n_vertices
        v %= n_vertices
        if not self_loops and u == v:
            continue
        if deduplicate:
            if (u, v) in seen:
                continue
            seen.add((u, v))
        edges.append((u, v))
    return edges


def livejournal_like(n_vertices: int = 2000, n_edges: int = 10000,
                     seed: int = 0,
                     ensure_source: int | None = 0
                     ) -> list[tuple[int, int]]:
    """The default graph of the bundled experiments: a scaled-down,
    power-law, mostly-connected directed graph.

    With ``ensure_source`` set, chain edges are prepended so that the
    source reaches a sizeable portion of the graph.
    """
    rng = np.random.default_rng(seed)
    edges = rmat_edges(n_vertices, n_edges, rng)
    if ensure_source is not None:
        # Star edges from the source into random vertices knit the
        # components together.
        extra_targets = rng.choice(n_vertices, size=max(4, n_vertices // 50),
                                   replace=False)
        extra = [(ensure_source, int(t)) for t in extra_targets
                 if int(t) != ensure_source]
        edges = extra + edges
    return edges


def degree_histogram(edges: list[tuple[int, int]]) -> dict[int, int]:
    """Out-degree -> count; tests use it to confirm the power law."""
    degrees: dict[int, int] = {}
    for u, _v in edges:
        degrees[u] = degrees.get(u, 0) + 1
    histogram: dict[int, int] = {}
    for degree in degrees.values():
        histogram[degree] = histogram.get(degree, 0) + 1
    return histogram
