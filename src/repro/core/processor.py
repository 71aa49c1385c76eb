"""The processor: Tornado's session layer (paper §5.1).

A processor is one worker thread.  It hosts the vertices assigned to it by
the partition scheme, one copy per loop (main + forked branches), and drives
the three-phase update protocol for each of them.  It enforces the delay
bound by buffering updates that ran too far ahead, flushes committed
versions to the storage backend before reporting progress (which is what
makes every terminated iteration a checkpoint), and rebuilds itself from
the last terminated iteration after a crash.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable

from repro.core.config import TornadoConfig
from repro.core.lamport import LamportClock
from repro.core.messages import (MAIN_LOOP, Acknowledge, ColumnBatch,
                                 Envelope, ForkBranch, IterationTerminated,
                                 MergeBranch, MigrateDone, MigrateState,
                                 PeerRecovered, Prepare,
                                 ProcessorRecovered, ProgressReport,
                                 RecoverLoops, ReleasedUpdate, Repartition,
                                 StopLoop, VertexInput, VertexUpdate)
from repro.core.partition import PartitionScheme
from repro.core.protocol import (CommitUpdate, SendAck, SendPrepare,
                                 VertexProtocol)
from repro.core.transport import ReliableEndpoint
from repro.core.vertex import (Application, Delta, VertexContext,
                               VertexProgram, VertexState)
from repro.simulator import Actor, Network, Simulator
from repro.storage import (CheckpointManifest, StorageBackend,
                           VersionedStore)

#: How many ``(vertex, weight)`` load pairs each main-loop progress
#: report carries for the migration planner.
MIGRATION_REPORT_TOP_K = 8


class LoopState:
    """Everything a processor keeps for one loop."""

    def __init__(self, name: str, is_main: bool) -> None:
        self.name = name
        self.is_main = is_main
        self.vertices: dict[Any, VertexState] = {}
        self.protocols: dict[Any, VertexProtocol] = {}
        # First iteration not yet terminated, as last heard from the master.
        self.frontier = 0
        # iteration -> [commits, sent, gathered]; cumulative.
        self.counters: dict[int, list[int]] = {}
        self.inputs_gathered = 0
        self.prepares_recorded = 0
        self.commits_total = 0
        self.sent_total = 0
        self.gathered_total = 0
        # Updates blocked by the delay bound, keyed by their iteration.
        self.buffered_updates: list[tuple[int, int, VertexUpdate]] = []
        # (producer, consumer) pairs with updates released from the delay
        # buffer but not yet re-applied out of the inbox.
        # While a pair is listed, later arrivals for it must park behind
        # the in-flight release — an inline apply would overtake it and
        # let the older offer replay last.  (Updates still *in* the heap
        # need no such guard: a parked head implies its iteration is at
        # or above the bound, so any equal-or-newer same-pair arrival
        # parks on iteration grounds anyway, and an older one may safely
        # apply first.)
        self.released_pairs: dict[tuple[Any, Any], int] = {}
        # Inputs deferred while their vertex prepares (paper §4.2).
        self.buffered_inputs: dict[Any, list[VertexInput]] = {}
        # Highest iteration any local vertex of this loop committed at.
        self.highest_commit = -1
        # Whether a ForkBranch actually ran here.  Recovery may rebuild a
        # branch as a checkpoint shell first; a later (re-sent) fork must
        # then merge into it rather than treat it as a duplicate.
        self.forked = False
        # Vertices touched (input or commit) since the last branch fork.
        self.changed_since_fork: set[Any] = set()
        # Per-vertex gathers (inputs + updates) since the last report:
        # the migration planner's message-volume signal.
        self.recent_gather_counts: dict[Any, int] = {}
        self.pending_flush = 0
        self._buffer_seq = itertools.count()
        # ------------------------------------------- copy-on-write forks
        # Branch loop: main-loop states this branch still shares (vertex ->
        # the main loop's live VertexState).  A vertex leaves ``base`` for
        # a private copy on its first branch touch or right before the
        # main loop next writes it, whichever comes first.
        self.base: dict[Any, VertexState] = {}
        # Branch loop: the main loop it forked from (None before a fork).
        self.source: LoopState | None = None
        # Branch loop: vertex -> rank in the order the fork created the
        # branch's vertices (shell first, then the main loop's, then later
        # arrivals).  None for loops that never forked, whose ``vertices``
        # dict already is that order.
        self.rank: dict[Any, int] | None = None
        # Main loop: branches whose ``base`` points into this loop — the
        # targets of the write barrier.
        self.sharers: list[LoopState] = []
        # Main loop: vertex -> the immutable ``(iteration, version)``
        # entry a stopped branch published for it, reused by reference
        # in every later branch's segment until the main loop writes the
        # vertex.
        self.published: dict[Any, tuple[int, tuple[Any, frozenset]]] = {}

    def counter(self, iteration: int) -> list[int]:
        entry = self.counters.get(iteration)
        if entry is None:
            entry = self.counters[iteration] = [0, 0, 0]
        return entry

    def prune_counters(self) -> None:
        """Drop counters no termination decision can look at again."""
        floor = self.frontier - 1
        for iteration in [k for k in self.counters if k < floor]:
            del self.counters[iteration]

    def watermark(self) -> float:
        """Lowest iteration with local pending vertex work
        (``VertexProtocol.has_pending_work``, inlined: this scans every
        vertex for every progress report).  Shared vertices have no
        protocol and never have pending work."""
        return min((p.iteration for p in self.protocols.values()
                    if p.dirty or p.update_time is not None),
                   default=math.inf)

    def in_fork_order(self, vertex_ids: list) -> list:
        """Sort ``vertex_ids`` (all of this loop's) into the order the fork
        created them.  Walks that send messages visit vertices in this
        order, so the traffic they produce is independent of the order
        in which shared vertices were materialised."""
        if self.rank is not None and len(vertex_ids) > 1:
            vertex_ids.sort(key=self.rank.__getitem__)
        return vertex_ids


class Processor(Actor):
    """One simulated worker executing the Tornado iteration model."""

    def __init__(self, sim: Simulator, name: str, config: TornadoConfig,
                 app: Application, partition: PartitionScheme,
                 store: VersionedStore, backend: StorageBackend,
                 network: Network, master_name: str,
                 manifest: CheckpointManifest | None = None) -> None:
        super().__init__(sim, name)
        self.config = config
        self.app = app
        self.partition = partition
        self.store = store
        self.backend = backend
        # Shared-database checkpoint manifest: flush completions record the
        # per-processor durable frontier here (paper §5.3).
        self.manifest = manifest
        self.network = network
        self.master_name = master_name
        self.clock = LamportClock(name)
        self.transport = ReliableEndpoint(
            sim, network, name, timeout=config.retransmit_timeout)
        self.loops: dict[str, LoopState] = {MAIN_LOOP: LoopState(MAIN_LOOP,
                                                                 True)}
        # Session messages for loops whose fork has not arrived yet.
        self._orphans: dict[str, list[Any]] = {}
        # Totals of stopped loops: loop -> (commits, sent, gathered,
        # prepares).
        self.loop_archive: dict[str, tuple[int, int, int, int]] = {}
        self._report_seq = 0
        self._report_timer_running = False
        self._flush_in_flight = False
        self._work_since_report = True
        # The reports of the latest flush (what the master was told).
        self._last_reports: list[ProgressReport] = []
        #: ``() -> tuple | None``: the fabric's channel counts, stamped on
        #: every report (``ProgressReport.channels``).  The live worker
        #: installs its fabric's; the simulated fabric keeps none.
        self.channel_counts: Callable[[], tuple | None] = lambda: None
        self.total_commits = 0
        self.total_updates_gathered = 0
        self.total_prepares = 0
        # Shared observability sinks (see repro.obs): instruments are
        # cached here so the hot paths pay one attribute load + call.
        self._trace = sim.trace
        metrics = sim.metrics
        self._m_updates = metrics.counter("core.updates_gathered")
        self._m_prepares = metrics.counter("core.prepares_sent")
        self._m_acks = metrics.counter("core.acks_sent")
        self._m_commits = metrics.counter("core.commits")
        self._m_flushes = metrics.counter("core.checkpoint_flushes")
        self._g_delay_buffer = metrics.gauge(f"core.{name}.delay_buffer")
        # ------------------------------------------------- live migration
        # Vertices migrating out: vertex -> (epoch, target).  Session
        # traffic for them is fenced here (handled locally, not forwarded)
        # until the vertex is released.
        self._outbound: dict[Any, tuple[int, str]] = {}
        # Vertices migrating in: vertex -> (epoch, source).  Gathers for
        # them are buffered until the source's MigrateState arrives; ACKs
        # are forwarded back to the source (the producer's in-flight
        # preparation still lives there).
        self._inbound: dict[Any, tuple[int, str]] = {}
        self._migration_buffer: dict[Any, list[Any]] = {}
        # Highest partition epoch applied; older Repartition notices are
        # fenced out.
        self._partition_epoch = 0
        self._m_migrated = metrics.counter("core.vertices_migrated")
        self._g_migrating = metrics.gauge(f"core.{name}.migrating")
        # ------------------------------------------------- session window
        # Sender-side session window: all outbound session traffic of one
        # dispatch (committed updates, PREPAREs, ACKs) buffered per loop
        # as one ordered entry list, then flushed at the end of the
        # dispatch as one envelope per destination processor.  Because
        # the window preserves the original send order end to end,
        # per-link protocol ordering (an update may never be overtaken
        # by the next round's PREPARE, scatters precede pended ACKs)
        # holds by construction — no special-case flushes needed.  With a
        # program-declared associative combiner, same-(producer,
        # consumer) scatters in one window merge into a single update at
        # the merged (max) iteration; the ``index`` map points at the
        # latest update cell per pair.
        self._combiner = app.program.update_combiner
        self._session_window: dict[str, tuple[list, dict]] = {}
        self._m_scatter_buffered = metrics.counter("core.scatter_buffered")
        self._m_scatter_batches = metrics.counter("core.scatter_batches")
        self._m_scatter_batched = metrics.counter(
            "core.scatter_batched_updates")
        self._m_scatter_merged = metrics.counter("core.scatter_merged")
        self._m_scatter_stale = metrics.counter("core.scatter_stale_skipped")
        self._m_envelopes_saved = metrics.counter(
            "core.scatter_envelopes_saved")
        # ------------------------------------------------------- gather
        # A gather may skip the gather_cost call only while the program
        # keeps the base-class default (always None).
        self._static_gather_cost = (type(app.program).gather_cost
                                    is VertexProgram.gather_cost)
        # Scratch context re-pointed at each gathered update: gather never
        # emits (documented contract), so only its state, loop and
        # iteration views need refreshing.
        self._gather_ctx = VertexContext(VertexState(None), MAIN_LOOP, 0)
        # Session-window buffer pool (flush-path allocation churn): the
        # window dict and its per-loop (entries, index) pairs are cleared
        # and reused across flushes instead of reallocated per dispatch.
        self._window_pool: list[tuple[list, dict]] = []
        self._spare_window: dict | None = None
        self._m_window_reuse = metrics.counter("core.window_reuse")
        self._g_store_cache_hits = metrics.gauge("storage.cache_hits")
        self._g_store_cache_misses = metrics.gauge("storage.cache_misses")
        self._g_store_rebases = metrics.gauge("storage.rebases")
        self._g_store_internal_reads = metrics.gauge(
            "storage.internal_reads")

    # ----------------------------------------------------------- lifecycle
    def start(self) -> None:
        self._report_timer_running = True
        self.sim.schedule_timer(self.config.report_interval,
                                self._report_tick)

    # ------------------------------------------------------------ dispatch
    def classify(self, message: Any) -> int:
        """Branch-loop traffic preempts main-loop backlog: the paper runs
        branch loops on otherwise-idle processors, so query work should
        not queue behind the continuous approximation work."""
        payload = message
        if isinstance(payload, Envelope):
            payload = payload.payload
        loop = getattr(payload, "loop", None)
        if loop is not None and loop != MAIN_LOOP:
            return 1
        if isinstance(payload, (ForkBranch, MergeBranch, StopLoop,
                                Repartition, MigrateState)):
            # Migration control is also urgent: the sooner the fence is
            # up (and the handoff adopted), the shorter the buffering
            # window for in-flight gathers.
            return 1
        return 0

    def handle(self, message: Any, sender: str) -> float:
        transport = self.transport
        try:
            payload = transport.on_message(message, sender)
            if payload is None:
                return self.config.control_cost
            self._work_since_report = True
            cost = self._dispatch(payload)
            if self._session_window:
                # End of the dispatch window: all session traffic
                # produced while handling this message goes out, merged
                # and batched (and carrying the ack owed to its sender).
                cost += self._flush_window()
            return cost
        finally:
            transport.flush_acks()

    def _dispatch(self, payload: Any) -> float:
        if isinstance(payload, VertexInput):
            return self._handle_input(payload)
        if isinstance(payload, VertexUpdate):
            return self._handle_update(payload)
        if isinstance(payload, ReleasedUpdate):
            return self._handle_released(payload.update)
        if isinstance(payload, ColumnBatch):
            return self._handle_column_batch(payload)
        if isinstance(payload, Prepare):
            return self._handle_prepare(payload)
        if isinstance(payload, Acknowledge):
            return self._handle_ack(payload)
        if isinstance(payload, IterationTerminated):
            return self._handle_terminated(payload)
        if isinstance(payload, ForkBranch):
            return self._handle_fork(payload)
        if isinstance(payload, MergeBranch):
            return self._handle_merge(payload)
        if isinstance(payload, StopLoop):
            return self._handle_stop(payload)
        if isinstance(payload, RecoverLoops):
            return self._handle_recover_loops(payload)
        if isinstance(payload, Repartition):
            return self._handle_repartition(payload)
        if isinstance(payload, MigrateState):
            return self._handle_migrate_state(payload)
        if isinstance(payload, PeerRecovered):
            return self._handle_peer_recovered(payload)
        return self.config.control_cost

    def _handle_peer_recovered(self, msg: PeerRecovered) -> float:
        """A peer restarted and lost its session state.  Two repairs:

        * Pended session-level ACKs it owed us are gone — every vertex
          mid-prepare re-sends its PREPARE to consumers the peer owns
          (the recovered consumer acknowledges immediately).
        * Preparations the peer's vertices had announced are void — drop
          those producers from our prepare_lists (if a recovered producer
          still wants to update, it will PREPARE again), which unblocks
          vertices that were waiting on a ghost.
        * The peer rolled its vertices back to the last checkpoint; offers
          we delivered after that checkpoint died with it and the
          transport will not resend them (they were acknowledged).  Every
          local vertex with a consumer on the peer re-scatters its current
          value (the paper's message replay, end to end).
        """
        cost = self.config.control_cost
        # Unacked PREPAREs addressed to the dead peer must not retransmit
        # later: the peer's dedup window died with it, so the copy would
        # land as fresh — and a stale PREPARE arriving after its producer
        # committed leaves a ghost prepare_list entry nothing ever clears.
        # Live rounds re-send theirs below.  A PREPARE may ride a session
        # frame; dropping the whole frame is safe — the updates in it are
        # re-derived by the re-scatter below, and ACKs to a rolled-back
        # preparation are void anyway.
        self.transport.purge_unacked(
            msg.processor,
            predicate=lambda p: isinstance(p, Prepare)
            or (isinstance(p, ColumnBatch) and p.has_prepare()))
        owner = self.partition.owner
        for loop in self.loops.values():
            for vertex_id, state in loop.vertices.items():
                if any(owner(target) == msg.processor
                       for target in state.targets):
                    loop.protocols[vertex_id].dirty = True
            reached = [vertex_id for vertex_id, state in loop.base.items()
                       if any(owner(target) == msg.processor
                              for target in state.targets)]
            for vertex_id in reached:
                _state, protocol = self._ensure_vertex(loop, vertex_id)
                protocol.dirty = True
            for vertex_id in loop.in_fork_order(list(loop.protocols)):
                protocol = loop.protocols[vertex_id]
                stale = [producer for producer in protocol.prepare_list
                         if self.partition.owner(producer)
                         == msg.processor]
                for producer in stale:
                    protocol.prepare_list.discard(producer)
                if not protocol.preparing:
                    if protocol.dirty:
                        cost += self._try_prepare(loop, vertex_id)
                    continue
                for consumer in sorted(protocol.waiting_list, key=repr):
                    if self.partition.owner(consumer) != msg.processor:
                        continue
                    # Through the window, so re-scattered updates buffered
                    # above are not overtaken by this PREPARE on the
                    # same link.
                    self._buffer_prepare(
                        loop, consumer,
                        Prepare(loop.name, vertex_id, consumer,
                                protocol.update_time))
        return cost

    def _forward_if_not_owner(self, vertex_id: Any, payload: Any) -> bool:
        """Route mis-addressed session traffic to the current owner (the
        partition scheme may have changed while the message was in
        flight)."""
        owner = self.partition.owner(vertex_id)
        if owner == self.name:
            return False
        if (vertex_id in self._outbound
                and getattr(payload, "loop", None) == MAIN_LOOP):
            # Migration fence: the vertex is ours until it is released
            # (its handoff waits for the in-flight preparation), so its
            # session traffic is still ours to run.
            return False
        self.transport.send(owner, payload,
                            tag=getattr(payload, "loop", None))
        return True

    def _buffer_if_migrating_in(self, vertex_id: Any, payload: Any) -> bool:
        """Hold main-loop *gather* traffic for a vertex migrating in until
        the handoff (MigrateState) arrives, then replay it.  Only gathers
        (inputs and already-committed updates) are safe to hold — no
        sender blocks on them.  Preparation traffic is forwarded to the
        migration source instead, where the live copy still runs: a held
        ACK would deadlock the source's own commit, and a held Prepare
        would deadlock its producer, who may be owed an immediate ACK by
        the Lamport order — the very ACK the source's commit (and hence
        the release this buffer waits for) depends on."""
        if getattr(payload, "loop", None) != MAIN_LOOP:
            return False
        entry = self._inbound.get(vertex_id)
        if entry is None:
            # The shared scheme may know of a handoff racing toward us
            # whose Repartition notice has not landed here yet; without
            # this check a gather outrunning the notice would materialise
            # the vertex from its last *committed* version and the
            # source's release would be silently ignored.
            main = self.loops.get(MAIN_LOOP)
            source = self.partition.migration_source(vertex_id)
            if (source is None
                    or self.partition.migrating_to(vertex_id) != self.name
                    or (main is not None and vertex_id in main.vertices)):
                return False
            entry = (self._partition_epoch, source)
            self._inbound[vertex_id] = entry
            self._g_migrating.set(len(self._outbound) + len(self._inbound))
        if isinstance(payload, (Acknowledge, Prepare)):
            self.transport.send(entry[1], payload, tag=MAIN_LOOP)
            return True
        self._migration_buffer.setdefault(vertex_id, []).append(payload)
        if self._trace.enabled:
            self._trace.record(self.sim.now, "migration", "buffered",
                               actor=self.name, vertex=str(vertex_id),
                               depth=len(self._migration_buffer[vertex_id]))
        return True

    # ------------------------------------------------------------ vertices
    def _ensure_vertex(self, loop: LoopState,
                       vertex_id: Any) -> tuple[VertexState, VertexProtocol]:
        state = loop.vertices.get(vertex_id)
        if state is None:
            if loop.base:
                shared = loop.base.pop(vertex_id, None)
                if shared is not None:
                    return self._materialise(loop, vertex_id, shared)
            if loop.rank is not None:
                loop.rank[vertex_id] = len(loop.rank)
            found = self.store.get_version(loop.name, vertex_id)
            if found is not None:
                # Adopted (repartitioned) or post-recovery vertex: seed
                # from its most recent durable version.
                iteration, (value, targets) = found
                state = VertexState(
                    vertex_id, self.app.program.snapshot_value(value),
                    set(targets), iteration)
                protocol = VertexProtocol(
                    vertex_id, iteration=max(iteration, loop.frontier))
            else:
                state = VertexState(vertex_id)
                protocol = VertexProtocol(vertex_id,
                                          iteration=loop.frontier)
            loop.vertices[vertex_id] = state
            loop.protocols[vertex_id] = protocol
            if found is None:
                ctx = VertexContext(state, loop.name, protocol.iteration)
                self.app.program.init(ctx)
        return state, loop.protocols[vertex_id]

    def _materialise(self, branch: LoopState, vertex_id: Any,
                     shared: VertexState
                     ) -> tuple[VertexState, VertexProtocol]:
        """Give ``branch`` its private copy of a main-loop state it shared
        since the fork — the copy the eager fork used to make up front."""
        state = VertexState(
            vertex_id, self.app.program.snapshot_value(shared.value),
            set(shared.targets), shared.last_commit_iteration)
        protocol = VertexProtocol(vertex_id, iteration=0)
        branch.vertices[vertex_id] = state
        branch.protocols[vertex_id] = protocol
        return state, protocol

    def _unshare(self, main: LoopState, vertex_id: Any) -> None:
        """Write barrier: the main loop is about to change or drop
        ``vertex_id``.  Every live branch still sharing its state takes a
        private copy first, and the version published for it is stale.
        Callers test ``main.sharers or main.published`` first, so a main
        loop with nothing shared or published pays only that test (and a
        branch loop, which never has either, too)."""
        for branch in main.sharers:
            shared = branch.base.pop(vertex_id, None)
            if shared is not None:
                self._materialise(branch, vertex_id, shared)
        main.published.pop(vertex_id, None)

    def _loop_or_orphan(self, name: str, message: Any) -> LoopState | None:
        loop = self.loops.get(name)
        if loop is None:
            # Session traffic racing ahead of the ForkBranch notice.
            self._orphans.setdefault(name, []).append(message)
        return loop

    # -------------------------------------------------------------- inputs
    def _handle_input(self, msg: VertexInput) -> float:
        if self._forward_if_not_owner(msg.vertex, msg):
            return self.config.control_cost
        if self._buffer_if_migrating_in(msg.vertex, msg):
            return self.config.control_cost
        # Orphan (don't drop) inputs that race RecoverLoops after a crash:
        # the ingester's replayed journal may beat the master's recovery
        # notice to a just-restarted processor.
        loop = self._loop_or_orphan(msg.loop, msg)
        if loop is None:
            return self.config.control_cost
        state, protocol = self._ensure_vertex(loop, msg.vertex)
        if protocol.preparing:
            # Inputs may change the dependency graph, so they are not
            # gathered during a preparation (paper §4.2).
            loop.buffered_inputs.setdefault(msg.vertex, []).append(msg)
            return self.config.control_cost
        return self._apply_input(loop, state, protocol, msg)

    def _apply_input(self, loop: LoopState, state: VertexState,
                     protocol: VertexProtocol, msg: VertexInput) -> float:
        if loop.sharers or loop.published:
            self._unshare(loop, msg.vertex)
        ctx = VertexContext(state, loop.name, protocol.iteration)
        delta = Delta(msg.kind, msg.payload, msg.weight)
        changed = self.app.program.gather(ctx, None, delta)
        if self.config.main_loop_mode == "batch" and loop.is_main:
            changed = False  # accumulate only; branch loops do the work
        protocol.gathered_input(loop.frontier, changed)
        loop.inputs_gathered += 1
        loop.changed_since_fork.add(msg.vertex)
        if loop.is_main:
            loop.recent_gather_counts[msg.vertex] = (
                loop.recent_gather_counts.get(msg.vertex, 0) + 1)
        cost = self.app.program.gather_cost(ctx, None, delta)
        if cost is None:
            cost = self.config.gather_cost
        return cost + self._try_prepare(loop, msg.vertex)

    # ------------------------------------------------------------- updates
    def _handle_update(self, msg: VertexUpdate,
                       released: bool = False) -> float:
        if self._forward_if_not_owner(msg.consumer, msg):
            return self.config.control_cost
        if self._buffer_if_migrating_in(msg.consumer, msg):
            return self.config.control_cost
        loop = self._loop_or_orphan(msg.loop, msg)
        if loop is None:
            return self.config.control_cost
        blocked_at = loop.frontier + self.config.delay_bound - 1
        must_park = msg.iteration >= blocked_at
        if not released and not must_park:
            # Per-pair FIFO: while an earlier same-(producer, consumer)
            # update released from the delay buffer is still in inbox
            # transit, a fresh arrival must park behind it.  Applying it
            # inline would let the older offer replay last and clobber
            # the newer value under slot-replacement gathers — and both
            # can carry the *same* iteration (input-driven commits do not
            # bump it), so only arrival order disambiguates.
            must_park = bool(
                loop.released_pairs.get((msg.producer, msg.consumer)))
        if must_park:
            heapq.heappush(loop.buffered_updates,
                           (msg.iteration, next(loop._buffer_seq), msg))
            self._g_delay_buffer.set(len(loop.buffered_updates))
            if self._trace.enabled:
                self._trace.record(self.sim.now, "protocol",
                                   "delay_buffered", actor=self.name,
                                   loop=loop.name,
                                   iteration=msg.iteration,
                                   depth=len(loop.buffered_updates))
            return self.config.control_cost
        return self._apply_update(loop, msg)

    def _apply_update(self, loop: LoopState, msg: VertexUpdate) -> float:
        state, protocol = self._ensure_vertex(loop, msg.consumer)
        return self._gather_update(loop, state, protocol, msg.producer,
                                   msg.consumer, msg.iteration, msg.data)

    def _gather_update(self, loop: LoopState, state: VertexState,
                       protocol: VertexProtocol, producer: Any,
                       consumer: Any, iteration: int, data: Any) -> float:
        """Gather one producer update into ``consumer``, whichever frame
        carried it: the stale-update guard, the write barrier, the user
        gather, the protocol's phase 1, the termination and load
        counters, the trace event, the virtual-time cost and the
        follow-up prepare."""
        if self._combiner is not None:
            # Stale-update guard (last-wins algebras only):
            # the delay-buffer release path can apply a parked update
            # *after* a fresher one from the same producer was gathered
            # inline; for slot-replacement semantics the stale offer is
            # dead and replaying it would clobber the newer value.  It
            # still counts toward termination (its sender charged the
            # sent counter) but runs no gather and no protocol event.
            last = protocol.gathered_from.get(producer)
            if last is not None and iteration < last:
                loop.counter(iteration)[2] += 1
                loop.gathered_total += 1
                self.total_updates_gathered += 1
                self._m_updates.inc()
                self._m_scatter_stale.inc()
                if self._trace.enabled:
                    self._trace.record(self.sim.now, "delta", "stale_skip",
                                       actor=self.name, loop=loop.name,
                                       iteration=iteration)
                return self.config.control_cost
            protocol.gathered_from[producer] = iteration
        if loop.sharers or loop.published:
            self._unshare(loop, consumer)
        ctx = self._gather_ctx
        ctx._state = state
        ctx.loop = loop.name
        ctx.iteration = protocol.iteration
        changed = self.app.program.gather(ctx, producer, data)
        protocol.gathered_update(producer, iteration, changed)
        if loop.is_main:
            recent = loop.recent_gather_counts
            recent[consumer] = recent.get(consumer, 0) + 1
        loop.counter(iteration)[2] += 1
        loop.gathered_total += 1
        self.total_updates_gathered += 1
        self._m_updates.inc()
        if self._trace.enabled:
            self._trace.record(self.sim.now, "protocol", "update",
                               actor=self.name, loop=loop.name,
                               iteration=iteration)
        cost = None
        if not self._static_gather_cost:
            cost = self.app.program.gather_cost(ctx, producer, data)
        if cost is None:
            cost = self.config.gather_cost
        if (protocol.dirty and protocol.update_time is None
                and not protocol.prepare_list):
            # Exactly when try_prepare would act (its early return fires
            # iff not dirty, mid-prepare, or a non-empty prepare_list);
            # quiet gathers skip the call entirely.
            cost += self._try_prepare(loop, consumer)
        return cost

    # ------------------------------------------------------- session window
    def _window_for(self, loop_name: str) -> tuple[list, dict]:
        window = self._session_window.get(loop_name)
        if window is None:
            if self._window_pool:
                window = self._window_pool.pop()
                self._m_window_reuse.inc()
            else:
                window = ([], {})
            self._session_window[loop_name] = window
        return window

    def _buffer_scatter(self, loop: LoopState, producer: Any, consumer: Any,
                        iteration: int, data: Any) -> None:
        """Park one committed scatter in the dispatch window.  With a
        declared combiner, a same-``(producer, consumer)`` update already
        in the window absorbs it in place (last-wins algebras collapse to
        the newest offer) — in-place is order-safe because a second
        commit within one dispatch only ever happens on the skip-prepare
        path, so no PREPARE of that pair can sit between the two;
        otherwise it queues behind the earlier one so the consumer still
        sees every update, in order."""
        self._m_scatter_buffered.inc()
        entries, index = self._window_for(loop.name)
        cell = (index.get((producer, consumer))
                if self._combiner is not None else None)
        if cell is not None:
            cell[0] = max(cell[0], iteration)
            cell[1] = self._combiner(cell[1], data)
            self._m_scatter_merged.inc()
        else:
            cell = [iteration, data]
            entries.append(("update", producer, consumer, cell))
            index[(producer, consumer)] = cell

    def _buffer_prepare(self, loop: LoopState, consumer: Any,
                        payload: Prepare) -> None:
        self._window_for(loop.name)[0].append(("prepare", consumer,
                                               payload))

    def _buffer_ack(self, loop: LoopState, producer: Any,
                    payload: Acknowledge) -> None:
        self._window_for(loop.name)[0].append(("ack", producer, payload))

    def _flush_window(self) -> float:
        """Drain the session window: route every entry by its
        *flush-time* owner (a migration may have flipped a consumer's
        owner mid-window — the message follows the vertex, it is never
        dropped), charge the sent-side termination counters post-merge,
        and ship one envelope per destination processor, preserving the
        original send order within it.  Updates are staged as raw row
        tuples and leave as column runs inside a ColumnBatch; drained
        window buffers return to the pool (clear-don't-recreate) instead
        of being reallocated.
        """
        if not self._session_window:
            return 0.0
        buffer = self._session_window
        self._session_window = (self._spare_window
                                if self._spare_window is not None else {})
        self._spare_window = None
        cost = 0.0
        for loop_name, window in buffer.items():
            entries, index = window
            loop = self.loops.get(loop_name)
            by_dst: dict[str, list[Any]] = {}
            updates = 0
            for entry in entries:
                kind = entry[0]
                if kind == "update":
                    _kind, producer, consumer, cell = entry
                    iteration, data = cell
                    if loop is not None:
                        loop.counter(iteration)[1] += 1
                    updates += 1
                    dst = self.partition.owner(consumer)
                    # A raw row: part of a column run or, alone in its
                    # envelope, a plain VertexUpdate.
                    payload: Any = (producer, consumer, iteration, data)
                elif kind == "prepare":
                    _kind, consumer, payload = entry
                    dst = self.partition.owner(consumer)
                else:  # pended or immediate ack, routed to the producer
                    _kind, producer, payload = entry
                    dst = self.partition.owner(producer)
                by_dst.setdefault(dst, []).append(payload)
            if loop is not None:
                loop.sent_total += updates
            for dst, payloads in sorted(by_dst.items()):
                if len(payloads) == 1:
                    single = payloads[0]
                    if type(single) is tuple:
                        single = VertexUpdate(loop_name, *single)
                    self.transport.send(dst, single, tag=loop_name)
                else:
                    self._send_batch(loop_name, dst, payloads)
                cost += self.config.control_cost
            if self._trace.enabled:
                self._trace.record(self.sim.now, "delta", "flush",
                                   actor=self.name, loop=loop_name,
                                   messages=len(entries), updates=updates,
                                   envelopes=len(by_dst))
            entries.clear()
            index.clear()
            self._window_pool.append(window)
        buffer.clear()
        self._spare_window = buffer
        return cost

    def _send_batch(self, loop_name: str, dst: str,
                    payloads: list[Any]) -> None:
        """Ship one multi-payload envelope as a ColumnBatch: consecutive
        update rows zip into parallel column runs, and PREPAREs and ACKs
        keep their original positions between the runs."""
        segments: list[Any] = []
        run: list[tuple] = []
        for payload in payloads:
            if type(payload) is tuple:
                run.append(payload)
            else:
                if run:
                    segments.append(tuple(zip(*run)))
                    run = []
                segments.append(payload)
        if run:
            segments.append(tuple(zip(*run)))
        self.transport.send(dst, ColumnBatch(loop_name, tuple(segments)),
                            tag=loop_name)
        self._m_scatter_batches.inc()
        self._m_scatter_batched.inc(len(payloads))
        self._m_envelopes_saved.inc(len(payloads) - 1)

    def _handle_column_batch(self, msg: ColumnBatch) -> float:
        """Unpack a session frame in its original send order: column runs
        go through :meth:`_apply_rows`, scalar segments through the exact
        single-message path."""
        cost = 0.0
        for seg in msg.segments:
            if type(seg) is tuple:
                cost += self._apply_rows(msg.loop, seg)
            else:
                cost += self._dispatch(seg)
        return cost

    def _apply_rows(self, loop_name: str, seg: tuple) -> float:
        """Gather one column run without materialising per-row update
        objects.  Rows that cannot gather in place — no such loop here, a
        mid-window owner flip, a migration fence or handoff in progress,
        the delay bound, an in-flight delay-buffer release — go through a
        scalar ``VertexUpdate`` dispatch, which replays the exact
        single-message semantics (forwarding, buffering, parking,
        orphaning)."""
        producers, consumers, iterations, values = seg
        loop = self.loops.get(loop_name)
        cost = 0.0
        if loop is None:
            # Stopped loop, or rows racing their fork/recovery notice:
            # the scalar path orphans them one by one.
            for row in zip(producers, consumers, iterations, values):
                cost += self._dispatch(VertexUpdate(loop_name, *row))
            return cost
        # Hoisted row gates — all constant for the duration of one batch:
        # the frontier only moves in _handle_terminated, migrations are
        # only marked by the master between events, and the racing-
        # handoff fence can only engage while the shared scheme already
        # knows of in-flight moves (migrating_count() below).
        mig = loop.is_main and bool(self._inbound
                                    or self.partition.migrating_count())
        blocked_at = loop.frontier + self.config.delay_bound - 1
        released = loop.released_pairs
        owner = self.partition.owner
        me = self.name
        vertices = loop.vertices
        protocols = loop.protocols
        gather_update = self._gather_update
        for row in zip(producers, consumers, iterations, values):
            producer, consumer, iteration, value = row
            if (mig or owner(consumer) != me or iteration >= blocked_at
                    or (released and released.get((producer, consumer)))):
                # Forwarded or fenced by a migration, parked by the delay
                # bound or behind an in-flight release: per message.
                cost += self._dispatch(VertexUpdate(loop_name, *row))
                continue
            state = vertices.get(consumer)
            if state is None:
                state, protocol = self._ensure_vertex(loop, consumer)
            else:
                protocol = protocols[consumer]
            cost += gather_update(loop, state, protocol, producer,
                                  consumer, iteration, value)
        return cost

    # ------------------------------------------------------ prepare / ack
    def _handle_prepare(self, msg: Prepare) -> float:
        if self._forward_if_not_owner(msg.consumer, msg):
            return self.config.control_cost
        if self._buffer_if_migrating_in(msg.consumer, msg):
            return self.config.control_cost
        loop = self._loop_or_orphan(msg.loop, msg)
        if loop is None:
            return self.config.control_cost
        _state, protocol = self._ensure_vertex(loop, msg.consumer)
        self.clock.observe(msg.update_time)
        actions = protocol.received_prepare(msg.producer, msg.update_time)
        return self.config.control_cost + self._run_actions(
            loop, msg.consumer, actions)

    def _handle_ack(self, msg: Acknowledge) -> float:
        if self._forward_if_not_owner(msg.producer, msg):
            return self.config.control_cost
        if self._buffer_if_migrating_in(msg.producer, msg):
            return self.config.control_cost
        loop = self.loops.get(msg.loop)
        if loop is None:
            return self.config.control_cost
        protocol = loop.protocols.get(msg.producer)
        if protocol is None:
            if msg.producer not in loop.base:
                return self.config.control_cost
            # A stale ACK still raises a shared vertex's iteration.
            _state, protocol = self._ensure_vertex(loop, msg.producer)
        actions = protocol.received_ack(msg.consumer, msg.iteration)
        return self.config.control_cost + self._run_actions(
            loop, msg.producer, actions)

    # ----------------------------------------------------- protocol driver
    def _try_prepare(self, loop: LoopState, vertex_id: Any) -> float:
        protocol = loop.protocols[vertex_id]
        state = loop.vertices[vertex_id]
        blocked_at = loop.frontier + self.config.delay_bound - 1
        skip = protocol.iteration >= blocked_at
        actions = protocol.try_prepare(self.clock, state.targets,
                                       skip_prepare=skip)
        return self._run_actions(loop, vertex_id, actions)

    def _run_actions(self, loop: LoopState, vertex_id: Any,
                     actions: list) -> float:
        cost = 0.0
        for action in actions:
            if isinstance(action, SendPrepare):
                # Session window: the window keeps send order, so the
                # consumer still sees this vertex's buffered update for
                # iteration i before the PREPARE announcing i+1 (the
                # update discards our prepare_list entry on arrival —
                # overtaking it would erase the new announcement).
                # Envelope cost is paid at flush.
                self._buffer_prepare(
                    loop, action.consumer,
                    Prepare(loop.name, vertex_id, action.consumer,
                            action.update_time))
                loop.prepares_recorded += 1
                self.total_prepares += 1
                self._m_prepares.inc()
                if self._trace.enabled:
                    self._trace.record(
                        self.sim.now, "protocol", "prepare",
                        actor=self.name, loop=loop.name,
                        iteration=loop.protocols[vertex_id].iteration)
            elif isinstance(action, SendAck):
                # Window order keeps the scatters-before-pended-acks link
                # order: the producer's commit (triggered by this ACK)
                # gathers our update first, as it would have un-batched.
                self._buffer_ack(
                    loop, action.producer,
                    Acknowledge(loop.name, vertex_id, action.producer,
                                action.iteration))
                self._m_acks.inc()
                if self._trace.enabled:
                    self._trace.record(self.sim.now, "protocol", "ack",
                                       actor=self.name, loop=loop.name,
                                       iteration=action.iteration)
            elif isinstance(action, CommitUpdate):
                cost += self._commit(loop, vertex_id, action.iteration)
        return cost

    def _commit(self, loop: LoopState, vertex_id: Any,
                iteration: int) -> float:
        if loop.sharers or loop.published:
            # The commit stamps the state, and ``scatter`` is user code
            # that may mutate the value.
            self._unshare(loop, vertex_id)
        state = loop.vertices[vertex_id]
        state.last_commit_iteration = iteration
        state.last_commit_time = self.sim.now
        if iteration > loop.highest_commit:
            loop.highest_commit = iteration
        version = (self.app.program.snapshot_value(state.value),
                   frozenset(state.targets))
        self.store.put(loop.name, vertex_id, iteration, version)
        loop.pending_flush += 1
        loop.counter(iteration)[0] += 1
        loop.commits_total += 1
        self.total_commits += 1
        self._m_commits.inc()
        if self._trace.enabled:
            self._trace.record(self.sim.now, "protocol", "commit",
                               actor=self.name, loop=loop.name,
                               iteration=iteration)
        if loop.is_main:
            loop.changed_since_fork.add(vertex_id)
        ctx = VertexContext(state, loop.name, iteration)
        self.app.program.scatter(ctx)
        emitted = ctx.take_emitted()
        # Park the scatters in the window; the flush accounts sent
        # counters (post-merge, at the merged iteration) and pays the
        # per-envelope cost.  Sorted scatter order: ``emitted`` inherits
        # the iteration order of the program's target set, which varies
        # with hash randomisation across interpreters (live workers).
        for target, data in sorted(emitted.items(),
                                   key=lambda kv: repr(kv[0])):
            self._buffer_scatter(loop, vertex_id, target, iteration, data)
        cost = self.config.control_cost
        # Gather the inputs that arrived during the preparation.
        deferred = loop.buffered_inputs.pop(vertex_id, None)
        if deferred:
            protocol = loop.protocols[vertex_id]
            for msg in deferred:
                cost += self._apply_input(loop, state, protocol, msg)
        if loop.is_main and self._outbound:
            # A commit ends the preparation that blocked a handoff.
            cost += self._release_ready_vertices(loop)
        return cost

    # ---------------------------------------------------------- frontier
    def _release_buffered(self, loop: LoopState) -> None:
        """Requeue delay-buffered updates that dropped below the bound.

        Releases go back through the inbox so each one pays message cost.
        They travel wrapped in :class:`ReleasedUpdate`: the wrapper marks
        them as already ordered by the buffer (apply, do not re-park) and
        holds a ``released_pairs`` entry until the update actually
        applies, so a fresh same-pair arrival cannot slip past it while
        it waits in the inbox."""
        blocked_at = loop.frontier + self.config.delay_bound - 1
        while (loop.buffered_updates
               and loop.buffered_updates[0][0] < blocked_at):
            _iteration, _seq, update = heapq.heappop(loop.buffered_updates)
            pair = (update.producer, update.consumer)
            loop.released_pairs[pair] = loop.released_pairs.get(pair, 0) + 1
            self.deliver(ReleasedUpdate(update), self.name)
        self._g_delay_buffer.set(len(loop.buffered_updates))

    def _handle_released(self, msg: VertexUpdate) -> float:
        loop = self.loops.get(msg.loop)
        if loop is not None:
            pair = (msg.producer, msg.consumer)
            count = loop.released_pairs.get(pair, 0) - 1
            if count > 0:
                loop.released_pairs[pair] = count
            else:
                loop.released_pairs.pop(pair, None)
        cost = self._handle_update(msg, released=True)
        # Applying the head may strand same-pair followers that parked
        # below the bound purely on FIFO grounds; sweep them out now
        # instead of waiting for a frontier advance that may never come.
        if loop is not None:
            self._release_buffered(loop)
        return cost

    def _handle_terminated(self, msg: IterationTerminated) -> float:
        loop = self.loops.get(msg.loop)
        if loop is None:
            return self.config.control_cost
        if msg.iteration + 1 <= loop.frontier:
            return self.config.control_cost
        loop.frontier = msg.iteration + 1
        loop.prune_counters()
        if self._trace.enabled:
            self._trace.record(self.sim.now, "progress", "frontier",
                               actor=self.name, loop=loop.name,
                               frontier=loop.frontier)
        self._release_buffered(loop)
        # The frontier advance may unlock the delay-bound fast path.
        cost = self.config.control_cost
        ready = [vertex_id for vertex_id, protocol in loop.protocols.items()
                 if protocol.dirty and not protocol.preparing]
        for vertex_id in loop.in_fork_order(ready):
            cost += self._try_prepare(loop, vertex_id)
        return cost

    def _handle_stop(self, msg: StopLoop) -> float:
        """Tear a finished branch loop down, first writing its final state
        so query results are complete even for vertices the branch never
        needed to update: one store segment of every vertex missing from
        the branch namespace, in fork order.  A vertex still shared with
        the main loop publishes the main state's entry, made once and
        reused by reference by every later branch until the main loop
        writes the vertex."""
        stopped = self.loops.pop(msg.loop, None)
        self._orphans.pop(msg.loop, None)
        if stopped is None:
            return self.config.control_cost
        self.loop_archive[msg.loop] = (
            stopped.commits_total, stopped.sent_total,
            stopped.gathered_total, stopped.prepares_recorded)
        source = stopped.source
        if source is not None and stopped in source.sharers:
            source.sharers.remove(stopped)
        # A private vertex the branch committed already has its version;
        # a shared one never does (``put_segment`` drops any key the
        # namespace has all the same).
        contains = self.store.contains
        snapshot_value = self.app.program.snapshot_value
        vertices = stopped.vertices
        base = stopped.base
        published = source.published if source is not None else {}
        segment = {}
        for vertex_id in (stopped.rank if stopped.rank is not None
                          else vertices):
            state = vertices.get(vertex_id)
            if state is None:
                entry = published.get(vertex_id)
                if entry is None:
                    state = base[vertex_id]
                    entry = published[vertex_id] = (
                        max(0, state.last_commit_iteration),
                        (snapshot_value(state.value),
                         frozenset(state.targets)))
                segment[vertex_id] = entry
            elif not contains(msg.loop, vertex_id):
                segment[vertex_id] = (
                    max(0, state.last_commit_iteration),
                    (snapshot_value(state.value), frozenset(state.targets)))
        written = self.store.put_segment(msg.loop, segment)
        return self.config.control_cost + 2e-6 * written

    # ------------------------------------------------------ fork / merge
    def _handle_fork(self, msg: ForkBranch) -> float:
        existing = self.loops.get(msg.loop)
        if (existing is not None and existing.forked) \
                or msg.loop in self.loop_archive:
            # A duplicate, or a stale re-send of a stopped branch's fork (a
            # crash wiped the dedup window that would have dropped it):
            # re-forking would let the zombie's commits write into the
            # finished branch's result namespace.
            return self.config.control_cost
        main = self.loops.get(MAIN_LOOP)
        if main is None:
            # The fork raced ahead of RecoverLoops on a freshly restarted
            # processor: there is no main loop to snapshot yet.  Orphan it
            # under the main loop so recovery replays it.
            self._orphans.setdefault(MAIN_LOOP, []).append(msg)
            return self.config.control_cost
        # Merge into a recovery shell if one exists: its vertices already
        # hold live branch traffic (gathered updates, restored versions)
        # that a fresh snapshot of the rolled-back main loop must not
        # clobber.
        branch = existing if existing is not None \
            else LoopState(msg.loop, is_main=False)
        branch.forked = True
        self.loops[msg.loop] = branch
        changed = main.changed_since_fork
        main.changed_since_fork = set()
        now = self.sim.now
        batch_mode = self.config.main_loop_mode == "batch"
        # Producers of main-loop updates still in flight: their committed
        # values have not reached every consumer, so the snapshot misses
        # them — they must re-scatter in the branch.  Session frames
        # carry many producers each.
        inflight_producers = set()
        for payload in self.transport.unacked_payloads():
            if isinstance(payload, VertexUpdate) \
                    and payload.loop == MAIN_LOOP:
                inflight_producers.add(payload.producer)
            elif isinstance(payload, ColumnBatch) \
                    and payload.loop == MAIN_LOOP:
                inflight_producers.update(payload.update_producers())
        cost = self.config.control_cost
        # Copy-on-write: an activated vertex gets its private copy now;
        # every other one is shared with the main loop (``base``) until
        # either side writes it.  Fork order ranks a recovery shell's
        # vertices first, then the main loop's in its order.
        rank = branch.rank = dict(zip(branch.vertices, itertools.count()))
        base = branch.base
        activate_on_fork = self.app.program.activate_on_fork
        ctx: VertexContext | None = None
        for vertex_id, state in main.vertices.items():
            if vertex_id in rank:
                # Shell vertex already live in the branch: keep its state
                # and (re-)activate it so it re-scatters whatever the
                # crash lost.
                branch.protocols[vertex_id].dirty = True
                continue
            rank[vertex_id] = len(rank)
            # One context over the main loop's live state, re-pointed per
            # vertex: activate_on_fork only reads it.
            if ctx is None:
                ctx = VertexContext(state, msg.loop, 0)
            else:
                ctx._state = state
            if batch_mode:
                # The main loop never propagated anything: every vertex
                # touched by inputs since the last epoch is unreflected.
                recently = vertex_id in changed
            else:
                # Approximate mode: old commits are already absorbed by
                # their consumers; only pending work and in-flight
                # scatters are unreflected in the snapshot.
                main_protocol = main.protocols.get(vertex_id)
                recently = (
                    (main_protocol is not None
                     and main_protocol.has_pending_work())
                    or vertex_id in inflight_producers
                    or state.last_commit_time >= now
                    or vertex_id in main.buffered_inputs)
            if msg.full_activation or activate_on_fork(ctx, recently):
                self._materialise(branch, vertex_id, state)[1].dirty = True
            else:
                base[vertex_id] = state
            # Per-vertex snapshot copy: the cost model charges the paper's
            # eager copy whatever the simulator shares.
            cost += 1e-6
        branch.source = main
        if base:
            main.sharers.append(branch)
        # Updates parked by the delay bound were never gathered: fold them
        # into the branch copies directly.
        if not batch_mode:
            # Fold in buffer (arrival) order so a stale same-pair offer
            # cannot land after a fresher one; the raw heap array is only
            # partially ordered.  (iteration, seq) keys are unique, so
            # sorted() never compares the updates.
            for _iteration, _seq, update in sorted(main.buffered_updates):
                if update.consumer not in rank:
                    continue
                b_state, b_protocol = self._ensure_vertex(branch,
                                                          update.consumer)
                b_ctx = VertexContext(b_state, msg.loop, 0)
                if self.app.program.gather(b_ctx, update.producer,
                                           update.data):
                    b_protocol.dirty = True
        # Kick the activated vertices off.
        dirty = [vertex_id for vertex_id, protocol
                 in branch.protocols.items() if protocol.dirty]
        for vertex_id in branch.in_fork_order(dirty):
            cost += self._try_prepare(branch, vertex_id)
        # Replay session traffic that arrived before the fork notice.
        for orphan in self._orphans.pop(msg.loop, []):
            self.deliver(orphan, self.name)
        return cost

    def _handle_merge(self, msg: MergeBranch) -> float:
        """Write a converged branch's results into the main loop at
        iteration τ+B (paper §5.2).  Values are read from the store, so
        merging is robust to the branch state having been stopped."""
        main = self.loops.get(MAIN_LOOP)
        if main is None:
            # Same race as in _handle_fork: merge once recovery rebuilds
            # the main loop.
            self._orphans.setdefault(MAIN_LOOP, []).append(msg)
            return self.config.control_cost
        # The branch walk-and-write-back is runtime housekeeping, batched:
        # one snapshot of the (stopped, hence unchanging) branch — shared
        # via the LRU cache across all processors merging it — and one
        # put_many into the main loop (a single cache invalidation).
        view = self.store.snapshot(msg.loop, internal=True)
        items = []
        for vertex_id, (value, targets) in view.items():
            if self.partition.owner(vertex_id) != self.name:
                continue
            state, protocol = self._ensure_vertex(main, vertex_id)
            if main.sharers or main.published:
                self._unshare(main, vertex_id)
            state.value = self.app.program.snapshot_value(value)
            state.targets = set(targets)
            state.last_commit_iteration = msg.target_iteration
            if msg.target_iteration > protocol.iteration:
                protocol.iteration = msg.target_iteration
            items.append((vertex_id, msg.target_iteration,
                          (self.app.program.snapshot_value(value),
                           frozenset(targets))))
            main.pending_flush += 1
            if self.config.main_loop_mode == "approximate":
                # Re-scatter the fixed point once so any consumer slot
                # written by in-flight pre-merge traffic is healed.
                protocol.dirty = True
        merged = self.store.put_many(MAIN_LOOP, items)
        cost = self.config.control_cost + 2e-6 * merged
        if self.config.main_loop_mode == "approximate":
            for vertex_id, protocol in list(main.protocols.items()):
                if protocol.dirty and not protocol.preparing:
                    cost += self._try_prepare(main, vertex_id)
        return cost

    # ---------------------------------------------------- live migration
    def _handle_repartition(self, msg: Repartition) -> float:
        """The partition scheme changed at ``msg.epoch``.  As the source
        of a move, fence the vertex (its session traffic stays ours) and
        release it as soon as it is not mid-prepare; as the target, start
        buffering its in-flight gathers until the handoff arrives."""
        cost = self.config.control_cost
        if msg.epoch < self._partition_epoch:
            return cost  # stale notice from an older layout
        main = self.loops.get(MAIN_LOOP)
        if main is None:
            # Racing RecoverLoops on a fresh restart: replay once the
            # main loop is rebuilt.
            self._orphans.setdefault(MAIN_LOOP, []).append(msg)
            return cost
        self._partition_epoch = msg.epoch
        for vertex_id, source, target in msg.moves:
            if source == target:
                continue
            if target == self.name:
                if vertex_id not in main.vertices:
                    # Not adopted yet: buffer gathers until MigrateState.
                    self._inbound[vertex_id] = (msg.epoch, source)
            elif source == self.name:
                self._outbound[vertex_id] = (msg.epoch, target)
        cost += self._release_ready_vertices(main)
        self._g_migrating.set(len(self._outbound) + len(self._inbound))
        return cost

    def _release_ready_vertices(self, main: LoopState) -> float:
        """Hand over every outbound vertex that is not mid-prepare: flush
        its freshest state to the shared store, drop the local copy, and
        tell the new owner (MigrateState) it may adopt.  Vertices still
        preparing are released by the commit that ends the preparation —
        releasing earlier would strand the consumers whose ACKs the
        preparation is waiting for."""
        cost = 0.0
        by_target: dict[str, list[tuple[Any, bool]]] = {}
        for vertex_id, (_epoch, target) in list(self._outbound.items()):
            protocol = main.protocols.get(vertex_id)
            if protocol is not None and protocol.preparing:
                continue
            if main.sharers or main.published:
                # Dropping a state is a write: a shared or published
                # state must never outlive its place in the main loop.
                self._unshare(main, vertex_id)
            state = main.vertices.pop(vertex_id, None)
            main.protocols.pop(vertex_id, None)
            main.recent_gather_counts.pop(vertex_id, None)
            active = False
            if state is not None:
                active = protocol.dirty
                version = (self.app.program.snapshot_value(state.value),
                           frozenset(state.targets))
                iteration = max(state.last_commit_iteration, main.frontier)
                if active:
                    # Uncommitted gathered deltas ride along in the value.
                    self.store.put(MAIN_LOOP, vertex_id, iteration, version)
                else:
                    # Delta handoff: the last commit is already durable;
                    # only write when the chain does not cover it.
                    self.store.put_if_newer(MAIN_LOOP, vertex_id,
                                            iteration, version)
                main.pending_flush += 1
                cost += 2e-6
            # Inputs deferred during an earlier preparation follow the
            # vertex (they re-enter through the new owner's buffer).
            for msg in main.buffered_inputs.pop(vertex_id, []):
                active = True
                self.transport.send(target, msg, tag=MAIN_LOOP)
                cost += self.config.control_cost
            del self._outbound[vertex_id]
            by_target.setdefault(target, []).append((vertex_id, active))
        for target in sorted(by_target):
            vertices = by_target[target]
            self.transport.send(target, MigrateState(
                self._partition_epoch, tuple(vertices)), tag="migration")
            self._m_migrated.inc(len(vertices))
            cost += self.config.control_cost
            if self._trace.enabled:
                self._trace.record(self.sim.now, "migration",
                                   "migrate_out", actor=self.name,
                                   target=target, vertices=len(vertices))
        self._g_migrating.set(len(self._outbound) + len(self._inbound))
        return cost

    def _handle_migrate_state(self, msg: MigrateState) -> float:
        """Adopt migrated vertices: seed from their freshest store
        version, re-activate the ones the source still had work for, and
        replay the gathers buffered while the handoff was in flight."""
        main = self.loops.get(MAIN_LOOP)
        if main is None:
            self._orphans.setdefault(MAIN_LOOP, []).append(msg)
            return self.config.control_cost
        cost = self.config.control_cost
        adopted = []
        for vertex_id, active in msg.vertices:
            self._inbound.pop(vertex_id, None)
            self.partition.clear_migrating(vertex_id, msg.epoch)
            if self.partition.owner(vertex_id) != self.name:
                # The layout moved on while the handoff was in flight;
                # the current owner adopts from the store on contact.
                for buffered in self._migration_buffer.pop(vertex_id, []):
                    self.deliver(buffered, self.name)
                continue
            _state, protocol = self._ensure_vertex(main, vertex_id)
            if active:
                protocol.dirty = True
            adopted.append(vertex_id)
            cost += 2e-6
            for buffered in self._migration_buffer.pop(vertex_id, []):
                self.deliver(buffered, self.name)
        for vertex_id in adopted:
            protocol = main.protocols[vertex_id]
            if protocol.dirty and not protocol.preparing:
                cost += self._try_prepare(main, vertex_id)
        self.transport.send(self.master_name, MigrateDone(
            msg.epoch, tuple(vertex for vertex, _active in msg.vertices)))
        self._g_migrating.set(len(self._outbound) + len(self._inbound))
        if self._trace.enabled:
            self._trace.record(self.sim.now, "migration", "migrate_in",
                               actor=self.name, vertices=len(msg.vertices))
        return cost

    @property
    def migration_idle(self) -> bool:
        """No handoff in progress on this processor."""
        return not (self._outbound or self._inbound
                    or self._migration_buffer)

    # ---------------------------------------------------------- reporting
    def _report_tick(self) -> None:
        if not self._report_timer_running or self.down:
            return
        self._flush_then_report()
        self.sim.schedule_timer(self.config.report_interval,
                                self._report_tick)

    def on_idle(self) -> None:
        if (not self.down and not self._flush_in_flight
                and self._work_since_report):
            self._flush_then_report()

    def report_if_evidence_changed(self) -> bool:
        """Report now if the master's view of this processor is stale;
        returns whether a report went out.  For drivers that block
        between messages (the live worker calls this right before it
        waits on its queue; the simulator never does): a transport ack
        that empties ``pending_by_tag`` changes the evidence the
        convergence predicate reads without passing ``_dispatch``, so
        neither ``on_idle`` nor anything short of the next report tick
        would tell the master.  Nor would channel counts that moved
        without a dispatch (a retransmit).  Watermarks and counters only
        move inside ``_dispatch``, which sets ``_work_since_report`` —
        the flag covers them, the comparison covers the transport."""
        if self.down or self._flush_in_flight:
            return False
        if not self._work_since_report:
            reported = {report.loop: (report.unacked, report.buffered,
                                      report.channels)
                        for report in self._last_reports}
            channels = self.channel_counts()
            current = {loop.name: (*self._loop_evidence(loop), channels)
                       for loop in self.loops.values()}
            if current == reported:
                return False
        self._flush_then_report()
        return True

    def _loop_evidence(self, loop: LoopState) -> tuple[int, int]:
        """``(unacked, buffered)`` as a progress report states them."""
        unacked = self.transport.pending_by_tag.get(loop.name, 0)
        buffered = len(loop.buffered_updates)
        if loop.is_main:
            # In-flight handoff traffic blocks main-loop convergence
            # the same way unacked session messages do.
            unacked += self.transport.pending_by_tag.get("migration", 0)
            buffered += sum(len(held) for held
                            in self._migration_buffer.values())
        return unacked, buffered

    def _flush_then_report(self) -> None:
        """Snapshot counters, flush the versions they cover, then report.
        Progress the master sees is therefore always durable (paper §5.3)."""
        if self._flush_in_flight:
            return
        self._work_since_report = False
        snapshots = self._last_reports = []
        channels = self.channel_counts()
        total_pending = 0
        for loop in self.loops.values():
            self._report_seq += 1
            vertex_load: tuple = ()
            unacked, buffered = self._loop_evidence(loop)
            if loop.is_main and loop.recent_gather_counts:
                counts = loop.recent_gather_counts
                ranked = sorted(counts,
                                key=lambda v: (-counts[v], str(v)))
                top = ranked[:MIGRATION_REPORT_TOP_K]
                vertex_load = tuple((v, counts[v]) for v in top)
                loop.recent_gather_counts = {}
            snapshots.append(ProgressReport(
                loop=loop.name,
                processor=self.name,
                seq=self._report_seq,
                counters={k: tuple(v) for k, v in loop.counters.items()},
                watermark=loop.watermark(),
                inputs_gathered=loop.inputs_gathered,
                busy_time=self.busy_time,
                unacked=unacked,
                buffered=buffered,
                vertex_load=vertex_load,
                channels=channels,
            ))
            total_pending += loop.pending_flush
            loop.pending_flush = 0
        # Durable frontiers as of this snapshot: once the flush lands,
        # every version up to highest_commit is on stable storage.
        frontiers = [(loop.name, loop.highest_commit)
                     for loop in self.loops.values()
                     if loop.highest_commit >= 0]
        self._flush_in_flight = True
        self._m_flushes.inc()
        # Store health gauges ride the report cadence (shared store: every
        # processor publishes the same totals, which is idempotent).
        self._g_store_cache_hits.set(self.store.cache_hits)
        self._g_store_cache_misses.set(self.store.cache_misses)
        self._g_store_rebases.set(self.store.rebases)
        self._g_store_internal_reads.set(self.store.internal_reads)
        if self._trace.enabled:
            self._trace.record(self.sim.now, "storage", "flush",
                               actor=self.name, versions=total_pending)
        self.backend.flush(total_pending, self._send_reports, snapshots,
                           frontiers)

    def _send_reports(self, snapshots: list[ProgressReport],
                      frontiers: list[tuple[str, int]] = ()) -> None:
        self._flush_in_flight = False
        if self.manifest is not None:
            # The disk finished the write even if we crashed meanwhile.
            for loop_name, iteration in frontiers:
                self.manifest.record_flush(loop_name, self.name, iteration)
        if self.down:
            return
        # A report is state, not an event: it goes on the fabric bare —
        # no envelope, ack, retransmit timer or dedup entry.  The master
        # drops a report whose seq is not newer, and the report tick
        # re-sends the current state, so the tick is its retransmission.
        for report in snapshots:
            self.network.send(self.name, self.master_name, report)

    # ------------------------------------------------------------ recovery
    def on_failure(self) -> None:
        self.transport.clear()
        self.loops = {}
        self._orphans = {}
        self._report_timer_running = False
        self._flush_in_flight = False
        # Migration fences die with the in-memory state they protected;
        # the master re-drives any in-flight handoff we were part of.
        self._outbound = {}
        self._inbound = {}
        self._migration_buffer = {}
        self._g_migrating.set(0)
        # Unsent window contents die with the crash, exactly like unsent
        # envelopes would; recovery re-scatters checkpoints.  The
        # buffer pool dies too — pooled buffers may alias pre-crash state.
        self._session_window = {}
        self._spare_window = None
        self._window_pool = []

    def on_recover(self) -> None:
        self.transport.send(self.master_name,
                            ProcessorRecovered(self.name))
        self.start()

    def _handle_recover_loops(self, msg: RecoverLoops) -> float:
        cost = self.config.control_cost
        for loop_name, last_terminated in msg.loops:
            if loop_name in self.loops:
                continue
            loop = LoopState(loop_name, loop_name == MAIN_LOOP)
            loop.frontier = max(0, last_terminated + 1)
            self.loops[loop_name] = loop
            bound = last_terminated if last_terminated >= 0 else None
            # Rebuild from the checkpoint in one batched housekeeping read.
            ours = [vertex_id for vertex_id in self.store.keys(loop_name)
                    if self.partition.owner(vertex_id) == self.name]
            found_map = self.store.get_many(loop_name, ours, bound,
                                            internal=True)
            for vertex_id, (iteration, (value, targets)) \
                    in found_map.items():
                state = VertexState(
                    vertex_id, self.app.program.snapshot_value(value),
                    set(targets), iteration)
                protocol = VertexProtocol(
                    vertex_id, iteration=max(iteration, loop.frontier))
                # Re-scatter the checkpoint so downstream slots written by
                # lost post-checkpoint commits are re-derived.
                protocol.dirty = True
                loop.vertices[vertex_id] = state
                loop.protocols[vertex_id] = protocol
                cost += 2e-6
            for vertex_id, protocol in list(loop.protocols.items()):
                if protocol.dirty:
                    cost += self._try_prepare(loop, vertex_id)
            for orphan in self._orphans.pop(loop_name, []):
                self.deliver(orphan, self.name)
        return cost
