"""The four benchmark workloads: inputs, application, and reference oracle.

Each workload is chosen for the layers it stresses (``why`` below, and the
layer table in README.md).  Inputs are generated from the seed alone; the
system under test only ever sees the generated stream tuples.

A workload's stream is cut into blocks: a *warm prefix* and one *warm op*
(fed during set-up), the *bulk section* as ``BULK_BURSTS`` equal bursts
(ingest throughput) and ``ops`` *deltas* of ``per_op`` tuples each (the
closed-loop fresh section).  Sizes scale linearly with ``scale`` (1.0 = the
sizes BENCHMARK.json's ``run_seconds`` was calibrated on; ``--quick`` uses
0.2).

What the seed varies is the *arrival order inside each block*; the data
set itself comes from ``DATA_SEED``.  The tuples of a block arrive within a
virtual microsecond, so their order is arbitrary and a fair thing to draw
from the seed, and every block boundary sees the same set of tuples under
every seed, so runs on different seeds do comparable work.  Drawing the
data set from the seed does not: asynchronous iteration amplifies any
input difference, and per-seed graphs moved ``core.commits`` by 20 % and
``ingest_tuples_per_s`` by 26 % (README.md, "Seeds") - wider than the
regression bounds the benchmark has to resolve.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.algorithms import (HingeLoss, PageRankProgram, SSSPProgram,
                              StaticRate, reference_pagerank,
                              reference_sssp, svm_application)
from repro.algorithms.graph_common import EdgeStreamRouter
from repro.algorithms.sgd import PARAM
from repro.baselines.solvers import GradientDescentSolver
from repro.core import Application
from repro.datagen import higgs_like, livejournal_like
from repro.streams import (StreamTuple, UniformRate, edge_stream,
                           instance_stream)

# Oracle tolerances, calibrated once over seeds 1-10 at scale 1.0 and 0.2;
# the worst value seen is quoted next to each.
#: Relative L1 distance between a PageRank result and the power-iteration
#: reference, sum|got - ref| / sum(ref).  Worst seen: 0.0185.
PAGERANK_L1_TOLERANCE = 0.04
#: Power iterations of the PageRank reference: 0.85**60 < 1e-4, far below
#: the tolerance, at a third of the default 200 iterations' cost.
PAGERANK_REFERENCE_ITERATIONS = 60
#: A result's hinge objective over every instance fed so far may exceed
#: the batch solver's by this factor.  Worst seen: 1.28 for a branch result
#: (it descends on 4 x 256 reservoir samples, the solver on everything),
#: 1.09 for the main loop's mini-batch approximation at the end of a pass.
SVM_OBJECTIVE_FACTOR = 1.6

SVM_DIM = 8
SVM_L2 = 1e-3
SVM_WARM_SOLVE_STEPS = 25
#: Convergence tolerance of the PageRank and SVM programs.  The bundled
#: experiments use 3e-3; at that setting a pass of either workload takes
#: twice as long as the benchmark's time cap allows, and one SVM op in ten
#: needs 2-3x the descent steps of the others, *which* ops depending on
#: the arrival order (fresh_p90_ms 118-172 ms over four seeds).  At 1e-2
#: both workloads keep their layer profile and the tail is regular.
ITERATION_TOLERANCE = 1e-2


def _static_rate() -> StaticRate:
    return StaticRate(0.1)


#: Seed of the data set (graph topology, instances) - see the module doc.
DATA_SEED = 0
#: The bulk section arrives as this many equal bursts, each absorbed
#: before the next: the time to absorb one burst of a dense workload is
#: chaotic in the arrival order, the sum over ten is not.
BULK_BURSTS = 10


@dataclass(frozen=True)
class Sizes:
    warm: int
    bulk: int
    ops: int
    per_op: int

    def scaled(self, scale: float) -> "Sizes":
        def n(value: int, floor: int) -> int:
            return max(floor, round(value * scale))
        # The delta size is part of the workload's character; only the
        # number of tuples and ops scales.
        return Sizes(n(self.warm, self.per_op * 4),
                     n(self.bulk, BULK_BURSTS), n(self.ops, 8), self.per_op)

    @property
    def total(self) -> int:
        return self.warm + self.bulk + self.ops * self.per_op

    def cuts(self) -> list[int]:
        """Block boundaries: warm prefix, warm op, the bulk bursts, then
        one block per delta."""
        cuts = [0, self.warm - self.per_op]
        cuts += [self.warm + self.bulk * burst // BULK_BURSTS
                 for burst in range(BULK_BURSTS + 1)]
        cuts += [self.warm + self.bulk + self.per_op * (op + 1)
                 for op in range(self.ops)]
        return cuts


class Workload:
    """One workload: how to make its inputs, its job and its verdicts."""

    name: str
    why: str
    backend = "sim"
    n_processors = 4
    sizes: Sizes
    #: Whether the main loop goes idle once its input is absorbed (graph
    #: fixpoints do; SGD keeps sampling its reservoirs forever).
    quiesces = True

    def dataset(self, count: int) -> list:
        """``count`` raw inputs (edges / instances) from ``DATA_SEED``."""
        raise NotImplementedError

    def blocks(self, seed: int, sizes: Sizes) -> list[list]:
        """The data set cut at ``sizes.cuts()``, each block in the
        arrival order the seed draws."""
        data = self.dataset(sizes.total)
        rng = random.Random(seed)
        cuts = sizes.cuts()
        blocks = [data[start:end] for start, end in zip(cuts, cuts[1:])]
        for block in blocks:
            rng.shuffle(block)
        return blocks

    def application(self) -> Application:
        raise NotImplementedError

    def stream(self, items: Sequence, start: float) -> list[StreamTuple]:
        """Stream tuples for ``items`` arriving from virtual time
        ``start`` on."""
        raise NotImplementedError

    def compact(self, values: dict) -> Any:
        """Reduce a result (vertex -> program value) to the part the
        oracle reads, in a form the cyclic GC does not track — results
        are kept until the pass ends and must not grow its heap."""
        raise NotImplementedError

    def verify(self, items: list,
               results: list[tuple[int, Any]]) -> list[bool]:
        """One verdict per ``(tuples fed, compact result)``, in feeding
        order; ``items`` is the whole stream in arrival order."""
        raise NotImplementedError


class _GraphWorkload(Workload):
    n_vertices: int

    def dataset(self, count: int) -> list:
        edges = livejournal_like(self.n_vertices, count,
                                 seed=DATA_SEED)[:count]
        if len(edges) != count:
            raise ValueError(f"{self.name}: generator produced "
                             f"{len(edges)} of {count} edges")
        return edges

    def stream(self, items: Sequence, start: float) -> list[StreamTuple]:
        # One burst: the whole chunk arrives within a virtual microsecond.
        return edge_stream(items, UniformRate(1e9, start=start))


class SSSP(_GraphWorkload):
    n_vertices = 2000
    source = 0

    def application(self) -> Application:
        return Application(
            SSSPProgram(self.source, max_distance=self.n_vertices * 2.0),
            EdgeStreamRouter(), name="sssp")

    def compact(self, values: dict) -> dict:
        return {vertex: value.distance for vertex, value in values.items()}

    def verify(self, items, results):
        verdicts = []
        for fed, distances in results:
            reference = reference_sssp(items[:fed], self.source)
            # Exact: same finite distances, and nothing reachable that
            # the reference calls unreachable.
            verdicts.append(
                all(distances.get(vertex, math.inf) == distance
                    for vertex, distance in reference.items())
                and all(math.isinf(distance)
                        for vertex, distance in distances.items()
                        if vertex not in reference))
        return verdicts


class SsspSim(SSSP):
    name = "sssp_sim"
    why = ("sparse incremental relaxations: tiny per-tuple work, so DES "
           "kernel, transport acks, dispatch and branch fork/snapshot "
           "dominate")
    sizes = Sizes(warm=1000, bulk=2000, ops=100, per_op=5)


class SsspLive(SSSP):
    name = "sssp_live"
    why = ("the sssp_sim stream on OS processes: pump, pickle and mp "
           "queues dominate and the DES kernel does nothing")
    backend = "live"
    n_processors = 2
    sizes = Sizes(warm=1000, bulk=1000, ops=100, per_op=5)


class PageRankSim(_GraphWorkload):
    name = "pagerank_sim"
    why = ("dense: each delta reactivates most vertices for many "
           "iterations, so gather/scatter, window flush, store puts and "
           "termination rounds dominate")
    n_vertices = 250
    sizes = Sizes(warm=200, bulk=500, ops=100, per_op=3)

    def application(self) -> Application:
        return Application(PageRankProgram(tolerance=ITERATION_TOLERANCE),
                           EdgeStreamRouter(), name="pagerank")

    def compact(self, values: dict) -> dict:
        return {vertex: value.rank for vertex, value in values.items()}

    def verify(self, items, results):
        verdicts = []
        for fed, ranks in results:
            reference = reference_pagerank(
                items[:fed], iterations=PAGERANK_REFERENCE_ITERATIONS)
            error = sum(abs(ranks.get(vertex, 0.0) - rank)
                        for vertex, rank in reference.items())
            verdicts.append(error <= PAGERANK_L1_TOLERANCE
                            * sum(reference.values()))
        return verdicts


class SvmSim(Workload):
    name = "svm_sim"
    why = ("five vertices with numpy payloads: program compute and "
           "termination rounds dominate, store/transport/kernel carry "
           "almost nothing - the bypass workload for their optimisations")
    quiesces = False
    sizes = Sizes(warm=200, bulk=400, ops=100, per_op=8)
    #: Virtual arrival rate: SGD's main loop samples between arrivals, so
    #: unlike the graph bursts this stream needs a finite rate.
    rate = 2000.0

    def dataset(self, count: int) -> list:
        return higgs_like(count, dim=SVM_DIM, seed=DATA_SEED, noise=0.1)[0]

    def application(self) -> Application:
        return svm_application(
            dim=SVM_DIM, n_samplers=4, l2=SVM_L2,
            schedule_factory=_static_rate, batch_size=16,
            reservoir_capacity=256, input_batch=8,
            tolerance=ITERATION_TOLERANCE)

    def stream(self, items: Sequence, start: float) -> list[StreamTuple]:
        return instance_stream(items, UniformRate(self.rate, start=start))

    def compact(self, values: dict) -> np.ndarray:
        return values[PARAM].weights.copy()

    def verify(self, items, results):
        loss = HingeLoss(l2=SVM_L2)
        solver = GradientDescentSolver(loss, SVM_DIM)
        xs = np.stack([instance.x() for instance in items])
        ys = np.asarray([instance.label for instance in items], dtype=float)
        verdicts = []
        applied = 0
        best = None
        for fed, weights in results:
            solver.apply(self.stream(items[applied:fed], 0.0))
            applied = fed
            best, _stats = solver.solve(initial=best)
            # Every later solve starts from this optimum and the data has
            # grown by one delta: a few steps, not another cold descent.
            solver.max_iterations = SVM_WARM_SOLVE_STEPS
            verdicts.append(
                loss.objective(weights, xs[:fed], ys[:fed])
                <= SVM_OBJECTIVE_FACTOR
                * loss.objective(best, xs[:fed], ys[:fed]))
        return verdicts


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (SsspSim(), PageRankSim(), SvmSim(), SsspLive())}
