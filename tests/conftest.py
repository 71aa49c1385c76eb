"""Shared test fixtures.

``make_job`` is the small fed-and-running SSSP job factory shared by the
admission, migration and observability suites.
"""

import pytest

from repro.algorithms.graph_common import EdgeStreamRouter
from repro.algorithms.sssp import SSSPProgram
from repro.core import Application, TornadoConfig, TornadoJob
from repro.streams import UniformRate, edge_stream

SSSP_EDGES = [("s", "a"), ("s", "b"), ("a", "c"), ("b", "c"), ("c", "d"),
              ("d", "e"), ("e", "f"), ("f", "g"), ("b", "h"), ("h", "g")]


def sssp_application() -> Application:
    return Application(SSSPProgram("s"), EdgeStreamRouter(), name="sssp")


@pytest.fixture
def sssp_edges():
    return list(SSSP_EDGES)


@pytest.fixture
def make_job():
    """Factory for a small fed-and-running SSSP job."""

    def factory(**config_kwargs):
        config_kwargs.setdefault("n_processors", 2)
        config_kwargs.setdefault("report_interval", 0.01)
        config_kwargs.setdefault("storage_backend", "memory")
        # Batch mode keeps branches slow enough to overlap.
        config_kwargs.setdefault("main_loop_mode", "batch")
        config_kwargs.setdefault("merge_policy", "never")
        job = TornadoJob(sssp_application(),
                         TornadoConfig(**config_kwargs))
        job.feed(edge_stream(SSSP_EDGES, UniformRate(rate=1000.0)))
        job.run_for(1.0)
        return job

    return factory
