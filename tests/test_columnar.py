"""Columnar-engine tests (the third A/B gate).

Three oracles, mirroring how the delta path earned trust:

* **Digest parity** — the scalar path is the semantics; with
  ``columnar=True`` the same seed must produce byte-identical
  flight-recorder digests and final state, on the simulator and on the
  live multiprocessing backend (whose store journal ships column slabs
  instead of per-entry tuples).
* **Kernel exactness** — :func:`make_combine_kernel` must compute
  bit-identical values to the scalar algebra closures it replaces, and
  return plain Python scalars (numpy scalar reprs would poison the
  canonical digest).
* **Bulk sweeps** — :class:`BulkRunner`'s whole-graph passes must match
  independent scalar references, and its slab applies must commit the
  same state into any store layout.
"""

import math

import numpy as np
import pytest

from repro.algorithms import EdgeStreamRouter
from repro.algorithms.sssp import SSSPProgram, reference_sssp
from repro.core import Application, TornadoConfig, TornadoJob
from repro.core.columnar import (VECTOR_MIN_SLOTS, BulkRunner,
                                 make_combine_kernel)
from repro.core.dsl import (Algebra, AlgebraicProgram, VectorSpec,
                            min_label, reachability, shortest_paths,
                            widest_path)
from repro.live.store import WorkerStore
from repro.storage import VersionedStore
from repro.streams import UniformRate, edge_stream

EDGES_W = [
    ("s", "a", 1.0), ("s", "b", 4.0), ("a", "c", 2.0), ("b", "c", 1.0),
    ("c", "d", 3.0), ("d", "e", 1.0), ("b", "e", 9.0), ("e", "f", 2.0),
    ("f", "g", 1.0), ("d", "g", 7.0), ("a", "h", 5.0), ("h", "d", 1.0),
]


def run_sim(program_factory, *, columnar, edges=EDGES_W, undirected=False,
            seed=7):
    app = Application(program_factory(), EdgeStreamRouter(
        undirected=undirected), name="columnar-ab")
    job = TornadoJob(app, TornadoConfig(
        n_processors=3, report_interval=0.01, storage_backend="memory",
        trace_enabled=True, seed=seed, columnar=columnar))
    job.feed(edge_stream(edges, UniformRate(rate=1000.0)))
    job.run_for(4.0)
    return job


# ------------------------------------------------------------ digests
class TestSimDigestParity:
    def test_sssp_digest_identical_columnar_on_off(self):
        jobs = {flag: run_sim(lambda: SSSPProgram("s"), columnar=flag)
                for flag in (False, True)}
        assert jobs[True].trace.digest() == jobs[False].trace.digest()
        assert {v: s.distance for v, s in jobs[True].main_values().items()} \
            == {v: s.distance for v, s in jobs[False].main_values().items()}

    @pytest.mark.parametrize("factory,undirected", [
        (lambda: shortest_paths("s"), False),
        (lambda: widest_path("s"), False),
        (lambda: reachability("s"), False),
        (min_label, True),
    ], ids=["shortest-paths", "widest-path", "reachability", "min-label"])
    def test_dsl_kernels_preserve_the_digest(self, factory, undirected):
        jobs = {flag: run_sim(factory, columnar=flag,
                              undirected=undirected)
                for flag in (False, True)}
        assert jobs[True].trace.digest() == jobs[False].trace.digest()
        assert {v: s.value for v, s in jobs[True].main_values().items()} \
            == {v: s.value for v, s in jobs[False].main_values().items()}
        # The vector kernel really was active on the columnar side.
        snapshot = jobs[True].metrics.snapshot()
        assert snapshot["core.vector_gathers"] > 0
        assert jobs[False].metrics.snapshot().get(
            "core.vector_gathers", 0) == 0

    def test_columnar_run_is_seed_deterministic(self):
        first = run_sim(lambda: shortest_paths("s"), columnar=True)
        second = run_sim(lambda: shortest_paths("s"), columnar=True)
        assert first.trace.digest() == second.trace.digest()


# ------------------------------------------------------------- kernels
def _many_slots(values):
    assert len(values) >= VECTOR_MIN_SLOTS
    return {f"p{i}": v for i, v in enumerate(values)}


class TestCombineKernel:
    def test_min_kernel_bit_identical_to_scalar(self):
        program = shortest_paths("s")
        kernel = make_combine_kernel(program.algebra)
        assert kernel is not None
        offers = [3.7, 1.2000000000000002, 9.0, 1.2, 5.5, 8.8, 2.1, 4.4]
        slots = _many_slots(offers)
        got = kernel("v", slots)
        assert got == program.algebra.combine("v", slots)
        assert type(got) is float

    def test_max_kernel_and_source_short_circuit(self):
        program = widest_path("s")
        kernel = make_combine_kernel(program.algebra)
        slots = _many_slots([1.0, 7.5, 3.25, 7.5, 0.5, 2.0, 6.0, 7.25])
        assert kernel("v", slots) == 7.5
        assert kernel("s", {}) == math.inf          # source wins, no slots

    def test_any_kernel_returns_python_bool(self):
        program = reachability("s")
        kernel = make_combine_kernel(program.algebra)
        got = kernel("v", _many_slots([False] * 7 + [True]))
        assert got is True
        assert kernel("v", _many_slots([False] * 8)) is False

    def test_min_label_includes_self(self):
        program = min_label()
        kernel = make_combine_kernel(program.algebra)
        got = kernel(3, _many_slots(list(range(10, 18))))
        assert got == 3                             # own id beats offers
        assert type(got) is int
        assert kernel(40, _many_slots(list(range(10, 18)))) == 10

    def test_cap_collapses_to_empty(self):
        program = shortest_paths("s", max_distance=5.0)
        kernel = make_combine_kernel(program.algebra)
        over = kernel("v", _many_slots([6.0, 7.0, 8.0, 9.0,
                                        10.0, 11.0, 12.0, 13.0]))
        assert math.isinf(over)
        assert over == program.algebra.combine(
            "v", _many_slots([6.0] * 8))

    def test_small_windows_use_the_scalar_closure(self):
        calls = []

        def scalar(vertex_id, slots):
            calls.append(vertex_id)
            return min(slots.values())

        algebra = Algebra(bottom=math.inf, combine=scalar,
                          extend=lambda v, w: v + w,
                          vector_spec=VectorSpec(reduce="min",
                                                 extend="add"))
        kernel = make_combine_kernel(algebra)
        assert kernel("v", {"p": 2.0}) == 2.0
        assert calls == ["v"]

    def test_unconvertible_values_fall_back_to_scalar(self):
        def scalar(vertex_id, slots):
            return sorted(slots.values())[0]

        algebra = Algebra(bottom=None, combine=scalar,
                          extend=lambda v, w: v,
                          vector_spec=VectorSpec(reduce="min",
                                                 extend="copy"))
        kernel = make_combine_kernel(algebra)
        slots = _many_slots([(1.0, "a")] * 7 + [(0.5, "b")])
        assert kernel("v", slots) == (0.5, "b")

    def test_unknown_spec_yields_no_kernel(self):
        algebra = Algebra(bottom=0.0,
                          combine=lambda v, s: sum(s.values()),
                          extend=lambda v, w: v,
                          vector_spec=VectorSpec(reduce="sum",
                                                 extend="copy"))
        assert make_combine_kernel(algebra) is None
        plain = Algebra(bottom=0.0,
                        combine=lambda v, s: 0.0,
                        extend=lambda v, w: v)
        assert make_combine_kernel(plain) is None

    def test_enable_columnar_kernels_is_idempotent(self):
        program = shortest_paths("s")
        scalar = program._combine
        assert program.enable_columnar_kernels() is True
        swapped = program._combine
        assert swapped is not scalar
        assert program.enable_columnar_kernels() is True
        assert program._combine is swapped          # not re-wrapped
        no_spec = Algebra(bottom=0, combine=lambda v, s: 0,
                          extend=lambda v, w: v)
        assert AlgebraicProgram(no_spec).enable_columnar_kernels() is False


# --------------------------------------------------------- bulk sweeps
def _small_graph(seed=5, n=64, m=256):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    weights = rng.integers(1, 10, size=m).astype(np.float64)
    return src, dst, weights


class TestBulkRunner:
    def test_pagerank_matches_scalar_power_iteration(self):
        n = 64
        src, dst, _w = _small_graph(n=n)
        runner = BulkRunner(store=None)
        final = None
        for _it, _ids, ranks in runner.pagerank_sweep(n, src, dst,
                                                      sweeps=10):
            final = ranks
        # Scalar reference: same damping/dangling model, python floats.
        out_degree = [0] * n
        for u in src.tolist():
            out_degree[u] += 1
        ranks = [1.0 / n] * n
        for _sweep in range(10):
            inflow = [0.0] * n
            for u, v in zip(src.tolist(), dst.tolist()):
                inflow[v] += ranks[u] / out_degree[u]
            dangling = sum(r for r, d in zip(ranks, out_degree) if d == 0)
            ranks = [0.15 / n + 0.85 * (x + dangling / n) for x in inflow]
        assert np.allclose(final, ranks, rtol=1e-12, atol=1e-15)
        assert final.sum() == pytest.approx(1.0)

    def test_sssp_matches_dijkstra(self):
        n = 64
        src, dst, weights = _small_graph(n=n)
        edges = [(int(u), int(v), float(w))
                 for u, v, w in zip(src, dst, weights)]
        # reference_sssp keeps the *last* weight per (u, v) pair, as the
        # stream path would; collapse duplicates the same way here.
        last = {}
        for u, v, w in edges:
            last[(u, v)] = w
        edges = [(u, v, w) for (u, v), w in last.items()]
        src = np.array([u for u, _v, _w in edges], dtype=np.int64)
        dst = np.array([v for _u, v, _w in edges], dtype=np.int64)
        weights = np.array([w for _u, _v, w in edges])
        runner = BulkRunner(VersionedStore(columnar=True))
        for iteration, ids, values in runner.sssp_sweep(n, src, dst,
                                                        weights, root=0):
            runner.apply(iteration, ids, values)
        got = runner.final_values()
        expected = reference_sssp(edges, 0)
        for vertex, distance in expected.items():
            if math.isinf(distance):
                assert vertex not in got
            else:
                assert got[vertex] == distance

    def test_components_find_min_reachable_label(self):
        n = 32
        src, dst, _w = _small_graph(seed=9, n=n, m=48)
        runner = BulkRunner(VersionedStore(columnar=True))
        for iteration, ids, values in runner.components_sweep(n, src,
                                                              dst):
            runner.apply(iteration, ids, values)
        got = runner.final_values()
        # Union-find reference over the undirected view.
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in zip(src.tolist(), dst.tolist()):
            parent[find(u)] = find(v)
        roots = {}
        for vertex in range(n):
            roots.setdefault(find(vertex), []).append(vertex)
        expected = {v: min(members) for members in roots.values()
                    for v in members}
        assert got == expected

    def test_apply_commits_identically_to_every_layout(self):
        n = 32
        src, dst, weights = _small_graph(seed=3, n=n, m=64)
        steps = list(BulkRunner(store=None).sssp_sweep(
            n, src, dst, weights, root=0))
        views = {}
        for layout in ("chains", "columnar"):
            runner = BulkRunner(
                VersionedStore(columnar=layout == "columnar"))
            for iteration, ids, values in steps:
                runner.apply(iteration, ids, values)
            views[layout] = runner.final_values()
            assert all(type(k) is int for k in views[layout])
            assert all(type(v) is float for v in views[layout].values())
        assert views["chains"] == views["columnar"]


# ------------------------------------------------------ live slab path
class TestWorkerStoreSlabs:
    def test_take_slabs_coalesces_same_loop_runs(self):
        store = WorkerStore(columnar=True)
        store.put("main", 0, 1, 10.0)
        store.put("main", 1, 1, 11.0)
        store.put("branch-1", 0, 1, 99.0)
        store.put("main", 2, 2, 12.0)
        slabs = store.take_slabs()
        assert [(loop, keys, iters) for loop, keys, iters, _v in slabs] \
            == [("main", (0, 1), (1, 1)),
                ("branch-1", (0,), (1,)),
                ("main", (2,), (2,))]
        assert store.take_slabs() == []             # journal drained

    def test_slabs_carry_plain_python_scalars(self):
        store = WorkerStore(columnar=True)
        store.put_columns("main", np.array([4, 5], dtype=np.int64),
                          np.array([2, 3], dtype=np.int64),
                          np.array([1.5, 2.5]))
        ((_loop, keys, iterations, values),) = store.take_slabs()
        assert all(type(k) is int for k in keys)
        assert all(type(i) is int for i in iterations)
        assert all(type(v) is float for v in values)
        assert (keys, iterations, values) == ((4, 5), (2, 3), (1.5, 2.5))

    def test_slab_replay_reproduces_the_worker_view(self):
        worker = WorkerStore(columnar=True)
        worker.put_columns("main", [0, 1, 2], 0, [5.0, 6.0, 7.0])
        worker.put("main", 1, 1, 60.0)
        worker.put("branch-1", 9, 0, "b")
        master = VersionedStore(columnar=True)
        for loop, keys, iterations, values in worker.take_slabs():
            master.put_columns(loop, keys, iterations, values)
        assert master.snapshot("main") == worker.snapshot("main")
        assert master.snapshot("branch-1") == worker.snapshot("branch-1")
        assert master.version_count() == worker.version_count()


class TestLiveColumnarDigest:
    def test_live_columnar_digest_matches_scalar_sim(self):
        """The whole slab journal path (worker journal → StoreWrite
        slab frames → master replay) is digest-invisible: a live
        columnar run digests identically to the scalar simulator run of
        the same seed (sync tree dataflow, the provable regime)."""
        from repro.live import canonical_digest
        tree = [("s", "a"), ("a", "b"), ("a", "c"), ("b", "d"),
                ("c", "e"), ("e", "f"), ("b", "g")]

        def build(backend, columnar):
            app = Application(SSSPProgram("s"), EdgeStreamRouter(),
                              name="sssp")
            return TornadoJob(app, TornadoConfig(
                backend=backend, n_processors=2, delay_bound=1,
                report_interval=0.02 if backend == "live" else 0.01,
                storage_backend="memory", trace_enabled=True, seed=7,
                columnar=columnar))

        burst = UniformRate(rate=1e9)
        live = build("live", columnar=True)
        try:
            live.feed(edge_stream(tree, burst))
            live.run_until_converged(timeout=60.0)
            live.finalize(timeout=30.0)
            live_digest = canonical_digest(live)
        finally:
            live.shutdown()
        sim = build("sim", columnar=False)
        sim.feed(edge_stream(tree, burst))
        sim.run_for(3.0)
        assert live_digest == canonical_digest(sim)
