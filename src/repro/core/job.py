"""The user-facing driver: build, feed, query and inspect a Tornado job.

>>> job = TornadoJob(application, TornadoConfig(n_processors=4))
>>> job.feed(edge_tuples)
>>> job.run_for(5.0)                      # let the main loop approximate
>>> result = job.query_and_wait()         # fork a branch, wait, read it
>>> result.values["some-vertex"]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.core.config import TornadoConfig
from repro.core.ingester import Ingester
from repro.core.master import BranchRecord, Master, MasterDurableState
from repro.core.messages import MAIN_LOOP
from repro.core.partition import PartitionScheme
from repro.core.processor import Processor
from repro.core.progress import passive
from repro.core.vertex import Application
from repro.errors import QueryError
from repro.obs import MetricsRegistry, TraceRecorder
from repro.simulator import (FailureInjector, Network, SimulatedDisk,
                             Simulator)
from repro.storage import (CheckpointManifest, DiskBackend, InMemoryBackend,
                           VersionedStore)
from repro.streams.model import StreamTuple


@dataclass
class ScheduledQuery:
    """Handle for a query armed at a fixed virtual instant (see
    :meth:`TornadoJob.schedule_query`).  ``query_id`` is assigned when
    the instant fires."""

    at: float
    full_activation: bool = False
    query_id: int | None = None

    @property
    def issued(self) -> bool:
        return self.query_id is not None


@dataclass
class QueryResult:
    """Outcome of one branch-loop query.

    ``values`` are the store's own objects, not copies.  A vertex the
    branch never touched reports the version published from the main
    loop's live state into the stopped branch's store segment; later
    results' segments (and the main loop's published-version cache)
    hold that same object until the main loop writes the vertex.  Treat
    them as read-only."""

    query_id: int
    loop: str
    values: dict[Any, Any]
    issued_at: float
    completed_at: float
    converged_iteration: int

    @property
    def latency(self) -> float:
        return self.completed_at - self.issued_at


class TornadoJob:
    """One Tornado deployment on the simulated cluster."""

    MASTER = "master"
    INGESTER = "ingester"

    def __new__(cls, app: Application | None = None,
                config: TornadoConfig | None = None) -> "TornadoJob":
        # Backend dispatch: the same program runs unmodified on either
        # kernel, so ``TornadoJob(app, TornadoConfig(backend="live"))``
        # transparently builds the multiprocessing driver.  (CPython's
        # type_call invokes __init__ on the returned instance's own
        # class, so LiveJob.__init__ runs instead of ours.)
        if (cls is TornadoJob and config is not None
                and getattr(config, "backend", "sim") == "live"):
            from repro.live.job import LiveJob
            return super().__new__(LiveJob)
        return super().__new__(cls)

    def __init__(self, app: Application,
                 config: TornadoConfig | None = None) -> None:
        self.app = app
        self.config = config if config is not None else TornadoConfig()
        self.sim = Simulator(
            seed=self.config.seed,
            recorder=TraceRecorder(capacity=self.config.trace_capacity,
                                   enabled=self.config.trace_enabled))
        self.network = Network(
            self.sim,
            latency=self.config.net_latency,
            jitter=self.config.net_jitter,
            capacity=self.config.net_capacity,
        )
        self.network.trace_links = self.config.trace_links
        self.store = VersionedStore()
        self.manifest = CheckpointManifest()
        self.durable = MasterDurableState()
        self.failures = FailureInjector(self.sim, network=self.network)
        processor_names = [f"proc-{i}" for i in
                           range(self.config.n_processors)]
        self.partition = PartitionScheme(processor_names)
        self.master = Master(self.sim, self.MASTER, self.config,
                             self.network, processor_names, self.INGESTER,
                             self.manifest, self.durable, self.partition)
        self.ingester = Ingester(self.sim, self.INGESTER, self.config,
                                 app, self.partition, self.network,
                                 self.MASTER)
        self.processors: list[Processor] = []
        #: Per-processor simulated disks (empty entries for the memory
        #: backend) — the targets of disk-stall/slowdown fault injection.
        self.disks: dict[str, SimulatedDisk] = {}
        for index, name in enumerate(processor_names):
            backend = self._make_backend(name)
            processor = Processor(self.sim, name, self.config, app,
                                  self.partition, self.store, backend,
                                  self.network, self.MASTER,
                                  manifest=self.manifest)
            node = f"node{index % self.config.n_nodes}"
            self.network.colocate(name, node)
            self.processors.append(processor)
        self.network.colocate(self.MASTER, "node0")
        self.network.colocate(self.INGESTER, "node0")
        for processor in self.processors:
            processor.start()

    def _make_backend(self, processor_name: str):
        if self.config.storage_backend == "memory":
            return InMemoryBackend(self.sim)
        disk = SimulatedDisk(self.sim, f"disk-{processor_name}",
                             seek_cost=self.config.disk_seek_cost,
                             record_cost=self.config.disk_record_cost)
        self.disks[processor_name] = disk
        return DiskBackend(disk)

    def endpoints(self) -> list:
        """Every reliable-transport endpoint of the deployment (master,
        ingester, processors) — the attachment points for a
        :class:`~repro.core.transport.TransportChaos` fault plane."""
        return ([self.master.transport, self.ingester.transport]
                + [processor.transport for processor in self.processors])

    # -------------------------------------------------------------- feeding
    def feed(self, tuples: Iterable[StreamTuple]) -> int:
        """Schedule stream tuples for ingestion at their timestamps."""
        return self.ingester.schedule_stream(tuples)

    # -------------------------------------------------------------- running
    def run(self, until: float | None = None) -> float:
        return self.sim.run(until=until)

    def run_for(self, duration: float) -> float:
        return self.sim.run(until=self.sim.now + duration)

    def run_until(self, predicate: Callable[[], bool],
                  max_events: int = 50_000_000) -> float:
        return self.sim.run_until(predicate, max_events=max_events)

    def run_until_quiescent(self, extra: float = 0.0) -> float:
        """Drain every scheduled event (main loop included); mostly useful
        in tests with finite streams."""
        end = self.sim.run()
        if extra:
            end = self.sim.run(until=end + extra)
        return end

    # -------------------------------------------------------------- queries
    def query(self, full_activation: bool = False) -> int:
        """Issue a query for the results at the current instant (paper
        §5.2); returns a query id to poll or wait on."""
        return self.ingester.issue_query(full_activation=full_activation)

    def schedule_query(self, at: float,
                       full_activation: bool = False) -> ScheduledQuery:
        """Arm a query to be issued *inside the simulation* at virtual
        time ``at``.  Unlike :meth:`query` (which issues at whatever
        instant the driver happens to call it), a scheduled query is part
        of the event timeline — a job replayed, or advanced in
        ``run(until=...)`` slices, issues it at exactly the same instant,
        which is what keeps the flight-recorder digest identical across
        those runs."""
        handle = ScheduledQuery(at=at, full_activation=full_activation)
        self.sim.schedule_at(max(self.sim.now, at),
                             self._issue_scheduled_query, handle)
        return handle

    def _issue_scheduled_query(self, handle: ScheduledQuery) -> None:
        handle.query_id = self.ingester.issue_query(
            full_activation=handle.full_activation)

    def query_rejected(self, query_id: int) -> bool:
        return query_id in self.ingester.rejections

    def wait_for_query(self, query_id: int,
                       max_events: int = 50_000_000) -> QueryResult:
        """Run the simulation until the query's result is ready: its
        branch loop converged (the ingester holds ``BranchDone``) and
        every processor acknowledged the branch's ``StopLoop``.  An ack
        leaves at the end of the handler call that processed its message,
        and that call writes the branch's final store segment, so an
        empty tag means the result is complete.  A master
        crash clears its outbox, and with it the tag, so the wait does not
        read the tag while the master is down; the recovered master stops
        the branch again under the same tag.  Raises :class:`QueryError`
        if admission control sheds the query."""
        results = self.ingester.results
        rejections = self.ingester.rejections
        master = self.master
        pending = master.transport.pending_by_tag

        def ready() -> bool:
            done = results.get(query_id)
            if done is not None:
                return not master.down and not pending.get(done.loop)
            return query_id in rejections

        self.sim.run_until(ready, max_events=max_events)
        if query_id in rejections:
            raise QueryError(
                f"query {query_id} shed: {rejections[query_id].reason}")
        return self.result(query_id)

    def query_and_wait(self, full_activation: bool = False) -> QueryResult:
        return self.wait_for_query(self.query(full_activation))

    def result(self, query_id: int) -> QueryResult:
        done = self.ingester.results.get(query_id)
        if done is None:
            raise QueryError(f"query {query_id} has not completed")
        values = {vertex_id: value for vertex_id, (value, _targets)
                  in self.store.snapshot(done.loop).items()}
        return QueryResult(
            query_id=query_id,
            loop=done.loop,
            values=values,
            issued_at=done.issued_at,
            completed_at=self.ingester.result_times[query_id],
            converged_iteration=done.converged_iteration,
        )

    # ------------------------------------------------------------- metrics
    @property
    def trace(self) -> TraceRecorder:
        """The job's flight recorder (enable via
        ``TornadoConfig(trace_enabled=True)``)."""
        return self.sim.trace

    @property
    def metrics(self) -> MetricsRegistry:
        """The job's shared metrics registry."""
        return self.sim.metrics

    def main_values(self) -> dict[Any, Any]:
        """Current in-memory main-loop values across all processors (the
        approximation the next branch would start from)."""
        merged: dict[Any, Any] = {}
        for processor in self.processors:
            main = processor.loops.get(MAIN_LOOP)
            if main is None:
                continue
            for vertex_id, state in main.vertices.items():
                merged[vertex_id] = state.value
        # Vertices handed over by a rebalance live in the store until
        # their new owner's first message materialises them.  This is an
        # in-memory inspection helper, not a billed protocol read.
        for vertex_id, (value, _targets) in self.store.snapshot(
                MAIN_LOOP, internal=True).items():
            if vertex_id not in merged:
                merged[vertex_id] = value
        return merged

    @property
    def total_commits(self) -> int:
        return sum(p.total_commits for p in self.processors)

    @property
    def total_prepares(self) -> int:
        return sum(p.total_prepares for p in self.processors)

    @property
    def total_updates_gathered(self) -> int:
        return sum(p.total_updates_gathered for p in self.processors)

    def loop_totals(self, loop: str) -> dict[str, int]:
        """Aggregate per-loop counters across all processors — the raw
        numbers behind the paper's Table 2."""
        totals = {"commits": 0, "sent": 0, "gathered": 0, "prepares": 0}
        for processor in self.processors:
            live = processor.loops.get(loop)
            if live is not None:
                entry = (live.commits_total, live.sent_total,
                         live.gathered_total, live.prepares_recorded)
            else:
                entry = processor.loop_archive.get(loop)
                if entry is None:
                    continue
            totals["commits"] += entry[0]
            totals["sent"] += entry[1]
            totals["gathered"] += entry[2]
            totals["prepares"] += entry[3]
        return totals

    def branch_record(self, query_id: int) -> BranchRecord:
        for record in self.durable.branches.values():
            if record.query_id == query_id:
                return record
        raise QueryError(f"no branch for query {query_id}")

    def branch_iteration_times(self, query_id: int) -> list[tuple[int, float]]:
        """(iteration, termination time) pairs of a query's branch loop —
        the raw data behind the paper's Figure 8a."""
        record = self.branch_record(query_id)
        return list(self.master.termination_times.get(record.loop, []))

    def main_frontier(self) -> int:
        tracker = self.master.trackers.get(MAIN_LOOP)
        return tracker.frontier if tracker is not None else 0

    def gc(self, keep_last_branches: int = 8,
           truncate_main_versions: bool = True) -> int:
        """Housekeep the shared store: drop the result namespaces of all
        but the newest ``keep_last_branches`` finished branch loops, and
        optionally truncate main-loop versions below the last terminated
        iteration.  Returns the number of versions/namespaces removed."""
        removed = 0
        finished = [record for record in self.durable.branches.values()
                    if record.done]
        finished.sort(key=lambda record: record.forked_at)
        for record in finished[:-keep_last_branches or None]:
            removed += self.store.drop_loop(record.loop)
        if truncate_main_versions:
            frontier = self.main_frontier()
            if frontier > 0:
                removed += self.store.truncate_before(MAIN_LOOP,
                                                      frontier - 1)
        return removed

    def quiescent(self) -> bool:
        """The main loop is idle everywhere: no input on its way from the
        ingester, every processor :func:`~repro.core.progress.passive` on
        the main loop as it stands now (not as last reported), no vertex
        handoff in flight."""
        if self.ingester.transport.unacked:
            return False
        if self.durable.migration is not None:
            return False
        if self.partition.migrating_count():
            return False
        for processor in self.processors:
            if not processor.migration_idle:
                return False
            if processor.transport.pending_by_tag.get("migration", 0):
                return False
            main = processor.loops.get(MAIN_LOOP)
            if main is not None and not passive(
                    main.watermark(), *processor._loop_evidence(main)):
                return False
        return True
