"""Connected-components oracle.

The components program itself is the DSL's :func:`repro.core.dsl.min_label`
run on an undirected router; this module keeps only the sequential
union-find reference its results are judged against.
"""

from __future__ import annotations

from typing import Any


def reference_components(edges: list[tuple]) -> dict[Any, Any]:
    """Union-find oracle: vertex -> min vertex id of its component."""
    parent: dict[Any, Any] = {}

    def find(x: Any) -> Any:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for edge in edges:
        u, v = edge[0], edge[1]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    return {vertex: find(vertex) for vertex in parent}
