"""The master (paper §5.1-5.2).

Collects progress from all processors, detects iteration termination and
loop convergence, manages branch-loop forks/merges, and coordinates
recovery.  Everything the master must survive a crash with — the terminated
frontiers and the branch registry — lives in shared durable state (the
paper keeps the analogous metadata in the shared database), so a restarted
master rebuilds its counters from the processors' cumulative reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.config import TornadoConfig
from repro.core.messages import (MAIN_LOOP, BranchDone, ForkBranch,
                                 IterationTerminated, MergeBranch,
                                 MigrateDone, MigrateState, PeerRecovered,
                                 ProcessorRecovered, ProgressReport,
                                 QueryRejected, QueryRequest, RecoverLoops,
                                 Repartition, StopLoop, branch_name)
from repro.core.migration import MigrationPlanner
from repro.core.partition import PartitionScheme
from repro.core.progress import ProgressTracker
from repro.core.transport import ReliableEndpoint
from repro.simulator import Actor, Network, Simulator
from repro.storage import CheckpointManifest


@dataclass
class BranchRecord:
    """Durable record of one branch loop."""

    loop: str
    query_id: int
    issued_at: float
    forked_at: float
    fork_iteration: int
    inputs_at_fork: int
    full_activation: bool
    done: bool = False
    merged: bool = False
    converged_at: float | None = None
    converged_iteration: int | None = None


@dataclass
class MigrationRecord:
    """Durable record of one in-flight live migration: the moves cut at
    ``epoch`` and the vertices whose adoption was confirmed so far."""

    epoch: int
    moves: tuple[tuple[Any, str, str], ...]
    done: set = field(default_factory=set)

    @property
    def complete(self) -> bool:
        return all(vertex in self.done for vertex, _s, _t in self.moves)


@dataclass
class MasterDurableState:
    """Master metadata persisted in the shared database."""

    next_branch_id: int = 1
    branches: dict[str, BranchRecord] = field(default_factory=dict)
    seen_queries: set[int] = field(default_factory=set)
    #: Finished branches whose ``StopLoop``s are not all acknowledged yet;
    #: a restarted master stops them again.
    unacked_stops: set[str] = field(default_factory=set)
    #: In-flight live migration (None when the layout is settled).
    migration: MigrationRecord | None = None


class Master(Actor):
    """Progress collection, termination detection and loop management."""

    def __init__(self, sim: Simulator, name: str, config: TornadoConfig,
                 network: Network, processors: list[str],
                 ingester_name: str, manifest: CheckpointManifest,
                 durable: MasterDurableState,
                 partition: PartitionScheme | None = None) -> None:
        super().__init__(sim, name)
        self.config = config
        self.network = network
        self.processors = list(processors)
        self.ingester_name = ingester_name
        self.manifest = manifest
        self.durable = durable
        self.partition = partition
        self.transport = ReliableEndpoint(
            sim, network, name, timeout=config.retransmit_timeout)
        self.trackers: dict[str, ProgressTracker] = {
            MAIN_LOOP: ProgressTracker(MAIN_LOOP, self.processors)}
        #: loop -> [(iteration, virtual time it terminated)]
        self.termination_times: dict[str, list[tuple[int, float]]] = {}
        # ------------------------------------------------ load balancing
        self._last_rebalance = float("-inf")
        self.rebalances = 0
        self.planner = MigrationPlanner(config)
        # Queries queued by admission control (in-memory: a master crash
        # drops them and the ingester's retransmissions re-enter them).
        self._query_backlog: list[QueryRequest] = []
        self.queries_shed = 0

    # ------------------------------------------------------------ dispatch
    def handle(self, message: Any, sender: str) -> float:
        transport = self.transport
        try:
            payload = transport.on_message(message, sender)
            if self.durable.unacked_stops:
                # A stop tag that drained was acknowledged everywhere (by
                # a bare ack or one an envelope carried in).
                self.durable.unacked_stops.intersection_update(
                    transport.pending_by_tag)
            if isinstance(payload, ProgressReport):
                return self._handle_report(payload)
            if isinstance(payload, QueryRequest):
                return self._handle_query(payload)
            if isinstance(payload, ProcessorRecovered):
                return self._handle_processor_recovered(payload)
            if isinstance(payload, MigrateDone):
                return self._handle_migrate_done(payload)
            return self.config.master_cost
        finally:
            transport.flush_acks()

    # -------------------------------------------------------------- reports
    def _handle_report(self, report: ProgressReport) -> float:
        tracker = self.trackers.get(report.loop)
        if tracker is None:
            record = self.durable.branches.get(report.loop)
            if record is None or record.done:
                return self.config.master_cost
            # A report for a live branch we lost track of (master restart
            # between fork and convergence): resurrect its tracker.
            tracker = self._make_tracker(report.loop)
        if not tracker.apply_report(report):
            return self.config.master_cost
        terminated = tracker.advance()
        if terminated:
            times = self.termination_times.setdefault(report.loop, [])
            for iteration in terminated:
                self.manifest.record_terminated(report.loop, iteration)
                times.append((iteration, self.sim.now))
                if self.sim.trace.enabled:
                    self.sim.trace.record(self.sim.now, "progress",
                                          "terminated", actor=self.name,
                                          loop=report.loop,
                                          iteration=iteration)
            self.sim.metrics.counter("core.iterations_terminated").inc(
                len(terminated))
            self._broadcast(IterationTerminated(report.loop, terminated[-1]))
        record = self.durable.branches.get(report.loop)
        if record is not None and not record.done and tracker.converged:
            self._finish_branch(record, tracker)
        if report.loop == MAIN_LOOP:
            self.planner.observe(report.processor, report.busy_time,
                                 self.sim.now, report.vertex_load)
            self._maybe_rebalance()
        return self.config.master_cost

    # ---------------------------------------------------- live migration
    def _maybe_rebalance(self) -> None:
        if self.config.rebalance_enabled and self.partition is not None:
            self._maybe_migrate()

    def _maybe_migrate(self) -> None:
        if self.durable.migration is not None:
            return  # one migration in flight at a time
        if self.sim.now - self._last_rebalance < \
                self.config.rebalance_cooldown:
            return
        if any(not record.done
               for record in self.durable.branches.values()):
            return  # never move vertices under live branch loops
        moves = self.planner.plan(self.processors, self.partition.owner)
        if not moves:
            return
        epoch = self.partition.reassign_batch(
            [(vertex, target) for vertex, _source, target in moves])
        self.partition.mark_migrating(epoch, moves)
        self.durable.migration = MigrationRecord(epoch, moves)
        self.rebalances += 1
        self._last_rebalance = self.sim.now
        self.sim.metrics.counter("core.migrations").inc()
        self.sim.metrics.counter("core.vertices_migration_planned").inc(
            len(moves))
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, "migration", "plan",
                                  actor=self.name, moves=len(moves),
                                  epoch=epoch)
        self._broadcast(Repartition(epoch, moves), tag="migration")

    def _handle_migrate_done(self, msg: MigrateDone) -> float:
        record = self.durable.migration
        if record is None or msg.epoch != record.epoch:
            return self.config.master_cost
        record.done.update(msg.vertices)
        if record.complete:
            self.durable.migration = None
            # Adopters clear their own entries; sweep any leftovers from
            # handoffs the layout outran.
            self.partition.clear_migrating_epoch(record.epoch)
            self._last_rebalance = self.sim.now
            self.sim.metrics.counter("core.migrations_completed").inc()
            if self.sim.trace.enabled:
                self.sim.trace.record(self.sim.now, "migration",
                                      "complete", actor=self.name,
                                      epoch=record.epoch,
                                      moves=len(record.moves))
            # Queries deferred while vertices were in flight can fork now.
            self._drain_query_backlog()
        return self.config.master_cost

    def _make_tracker(self, loop: str) -> ProgressTracker:
        tracker = ProgressTracker(loop, self.processors)
        tracker.frontier = self.manifest.restart_iteration(loop) + 1
        self.trackers[loop] = tracker
        return tracker

    # -------------------------------------------------------------- queries
    def _active_branch_count(self) -> int:
        return sum(1 for record in self.durable.branches.values()
                   if not record.done)

    def _handle_query(self, query: QueryRequest) -> float:
        if query.query_id in self.durable.seen_queries:
            return self.config.master_cost
        if self.durable.migration is not None:
            # A branch forked mid-handoff would snapshot a main loop with
            # vertices owned by nobody; defer until the layout settles.
            if all(q.query_id != query.query_id
                   for q in self._query_backlog):
                self._query_backlog.append(query)
            return self.config.master_cost
        if (self._active_branch_count()
                >= self.config.max_concurrent_branches):
            if self.config.branch_admission == "shed":
                self.durable.seen_queries.add(query.query_id)
                self.queries_shed += 1
                self.transport.send(self.ingester_name, QueryRejected(
                    query_id=query.query_id,
                    issued_at=query.issued_at,
                    reason="branch-loop capacity exhausted"))
            elif all(q.query_id != query.query_id
                     for q in self._query_backlog):
                self._query_backlog.append(query)
            return self.config.master_cost
        return self._start_branch(query)

    def _start_branch(self, query: QueryRequest) -> float:
        self.durable.seen_queries.add(query.query_id)
        branch_id = self.durable.next_branch_id
        self.durable.next_branch_id += 1
        loop = branch_name(branch_id)
        main_tracker = self.trackers[MAIN_LOOP]
        record = BranchRecord(
            loop=loop,
            query_id=query.query_id,
            issued_at=query.issued_at,
            forked_at=self.sim.now,
            fork_iteration=main_tracker.last_terminated,
            inputs_at_fork=main_tracker.total_inputs(),
            full_activation=query.full_activation,
        )
        self.durable.branches[loop] = record
        self._make_tracker(loop)
        self.sim.metrics.counter("core.branches_forked").inc()
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, "loop", "fork",
                                  actor=self.name, loop=loop,
                                  query=query.query_id,
                                  iteration=record.fork_iteration)
        self._broadcast(ForkBranch(
            loop=loop,
            fork_iteration=record.fork_iteration,
            previous_fork_iteration=-1,
            full_activation=query.full_activation,
        ))
        return self.config.master_cost

    # ------------------------------------------------------------ branches
    def _finish_branch(self, record: BranchRecord,
                       tracker: ProgressTracker) -> None:
        record.done = True
        record.converged_at = self.sim.now
        record.converged_iteration = tracker.last_terminated
        self.sim.metrics.counter("core.branches_converged").inc()
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, "loop", "converged",
                                  actor=self.name, loop=record.loop,
                                  iteration=record.converged_iteration)
        should_merge = self.config.merge_policy == "always"
        if self.config.merge_policy == "if_quiescent":
            main_inputs = self.trackers[MAIN_LOOP].total_inputs()
            should_merge = main_inputs == record.inputs_at_fork
        if should_merge:
            record.merged = True
            target = (self.trackers[MAIN_LOOP].frontier
                      + self.config.delay_bound)
            self._broadcast(MergeBranch(record.loop, target))
        self._broadcast(StopLoop(record.loop), tag=record.loop)
        self.durable.unacked_stops.add(record.loop)
        self.trackers.pop(record.loop, None)
        self.transport.send(self.ingester_name, BranchDone(
            loop=record.loop,
            query_id=record.query_id,
            converged_iteration=record.converged_iteration,
            issued_at=record.issued_at,
        ))
        # A slot opened up: admit the oldest queued query, if any.
        self._drain_query_backlog()

    def _drain_query_backlog(self) -> None:
        while (self._query_backlog
               and self.durable.migration is None
               and self._active_branch_count()
               < self.config.max_concurrent_branches):
            self._start_branch(self._query_backlog.pop(0))

    # ------------------------------------------------------------ recovery
    def _handle_processor_recovered(self, msg: ProcessorRecovered) -> float:
        self.sim.metrics.counter("core.processor_recoveries").inc()
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, "loop", "recovered",
                                  actor=self.name,
                                  processor=msg.processor)
        for tracker in self.trackers.values():
            tracker.forget_all()
        # Its busy counter restarted: stale load snapshots must not drive
        # the next rebalance decision.
        self.planner.forget(msg.processor)
        loops = [(MAIN_LOOP, self.manifest.restart_iteration(MAIN_LOOP))]
        for loop, record in self.durable.branches.items():
            if not record.done:
                loops.append((loop, self.manifest.restart_iteration(loop)))
        self.transport.send(msg.processor, RecoverLoops(tuple(loops)))
        # Re-fork live branches on the recovered processor: its original
        # ForkBranch may have died with the crash (and, if it was never
        # acknowledged, its retransmission would lose the race against
        # the recovery shell RecoverLoops builds).  The processor merges
        # a re-fork into whatever branch state recovery restored.
        for loop, record in self.durable.branches.items():
            if not record.done:
                self.transport.send(msg.processor, ForkBranch(
                    loop=loop,
                    fork_iteration=record.fork_iteration,
                    previous_fork_iteration=-1,
                    full_activation=record.full_activation))
        for peer in self.processors:
            if peer != msg.processor:
                self.transport.send(peer, PeerRecovered(msg.processor))
        # The ingester replays its input journal for the recovered
        # processor: inputs acknowledged after the restored checkpoint
        # died with the crash and nothing else will resend them.
        self.transport.send(self.ingester_name,
                            PeerRecovered(msg.processor))
        self._complete_migration_for(msg.processor)
        if self.durable.migration is not None:
            # A crash can swallow a handoff notice (e.g. the target died
            # with an unacknowledged MigrateDone in its transport).
            # Re-drive the round: sources re-release what they no longer
            # hold (an empty-handed MigrateState) and targets re-confirm
            # what they already adopted — both sides are idempotent.
            record = self.durable.migration
            self._broadcast(Repartition(record.epoch, record.moves),
                            tag="migration")
        return self.config.master_cost

    def _complete_migration_for(self, crashed: str) -> None:
        """Administratively finish in-flight moves whose source died: the
        source's live copy is gone, but its last committed version is in
        the shared store, so the target can adopt from there.  The work
        the source gathered for those vertices and never committed is
        re-derived the same way plain crash recovery re-derives it — the
        ingester replays its journal and peers re-scatter, aimed at the
        *adopting* processor."""
        record = self.durable.migration
        if record is None:
            return
        pending: dict[str, list[Any]] = {}
        for vertex, source, target in record.moves:
            if vertex not in record.done and source == crashed:
                pending.setdefault(target, []).append(vertex)
        for target in sorted(pending):
            vertices = pending[target]
            self.transport.send(target, MigrateState(
                record.epoch,
                tuple((vertex, True) for vertex in vertices)),
                tag="migration")
            self.transport.send(self.ingester_name, PeerRecovered(target))
            for peer in self.processors:
                if peer != target:
                    self.transport.send(peer, PeerRecovered(target))
            if self.sim.trace.enabled:
                self.sim.trace.record(self.sim.now, "migration",
                                      "admin_complete", actor=self.name,
                                      source=crashed, target=target,
                                      vertices=len(vertices))

    def on_failure(self) -> None:
        self.transport.clear()
        self.trackers = {}
        # Load stats are in-memory only; a restarted master restarts the
        # observation window from scratch.
        self.planner = MigrationPlanner(self.config)

    def on_recover(self) -> None:
        """Rebuild from durable state; cumulative processor reports will
        repopulate the counters."""
        self._make_tracker(MAIN_LOOP)
        for loop, record in self.durable.branches.items():
            if not record.done:
                self._make_tracker(loop)
        for loop in self.trackers:
            last = self.manifest.restart_iteration(loop)
            if last >= 0:
                self._broadcast(IterationTerminated(loop, last))
        # The crash dropped the outbox, and with it the tag a query's
        # wait reads: stop every branch whose stops were not all
        # acknowledged again (a processor acks a repeat and ignores it).
        for loop in sorted(self.durable.unacked_stops):
            self._broadcast(StopLoop(loop), tag=loop)
        migration = self.durable.migration
        if migration is not None:
            # Re-drive the in-flight handoff: the notice is idempotent on
            # both sides (sources re-release what they still hold, targets
            # re-confirm what they already adopted).
            self._broadcast(Repartition(migration.epoch, migration.moves),
                            tag="migration")

    # -------------------------------------------------------------- helpers
    def _broadcast(self, payload: Any, tag: str | None = None) -> None:
        for processor in self.processors:
            self.transport.send(processor, payload, tag=tag)
