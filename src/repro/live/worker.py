"""The worker process: one unmodified ``Processor`` behind its queues —
a pair to the master and, for a first incarnation, one to and one from
every peer (``repro.live.transport.WorkerNet`` owns them all).

Spawned (not forked) so each worker is a genuinely fresh interpreter —
which is also why the determinism bug batch matters: with hash
randomisation, any set-iteration-order dependence in the protocol hot
paths would make two workers disagree on scatter order.

The loop is event-driven and works in batches:

1. *Intake.*  Take every frame already on the master queue and the peer
   queues (``WorkerNet.take_batch``: per-source FIFO, a bounded slice
   per queue) into the actor inbox before running anything, so a burst
   of wires is one inbox drain, one ``on_idle`` and therefore one
   ``StoreWrite`` + one ``ProgressReport`` — what the simulator does with
   messages that share an instant.  Control frames (StoreLoad hydration,
   PeerDown, Collect barrier, Shutdown) come from the master only, are
   answered outside the actor inbox and end the batch they arrive in.
2. *Run.*  A bounded slice of the ready FIFO, then the due wall-clock
   timers (retransmits, report ticks); the bound keeps a long compute
   phase from starving intake.
3. *Quiet edge.*  With nothing at hand and nothing ready the worker is
   about to block.  If what it last reported differs from what is true
   now — its termination evidence or its channel counts — it reports
   first (``Processor.report_if_evidence_changed``: convergence never
   waits out ``report_interval``; the tick is a liveness heartbeat).
   Then it blocks on all its inbound pipes at once until a frame arrives
   or the next timer is due.
"""

from __future__ import annotations

import queue
import time
import traceback
from dataclasses import dataclass
from typing import Any

from repro.core.messages import MAIN_LOOP
from repro.core.partition import PartitionScheme
from repro.core.processor import Processor
from repro.live.kernel import LiveKernel
from repro.live.store import LiveBackend, WorkerStore
from repro.live.transport import LiveTransport, WorkerNet
from repro.live.wire import (Collect, FetchStore, FinalReport, PeerDown,
                             Shutdown, StoreLoad, Wire, WorkerError,
                             WorkerSpec)
from repro.obs import TraceRecorder

MASTER_NAME = "master"

#: How long a recovering worker waits for its StoreLoad before giving up.
HYDRATION_TIMEOUT = 60.0
#: Ready-FIFO callbacks run per loop turn (bounds intake starvation).
READY_SLICE = 512
#: Idle poll ceiling so timer deadlines are re-checked regularly.
IDLE_POLL = 0.05


@dataclass
class LoopStats:
    """What the worker loop did, shipped home in the ``FinalReport``
    (the fields of the same names)."""

    intake_batches: int = 0
    frames_in: int = 0
    reports_tick: int = 0
    reports_idle: int = 0
    reports_quiet_edge: int = 0
    blocked_s: float = 0.0


def build_final_report(processor: Processor, kernel: LiveKernel,
                       incarnation: int, stats: LoopStats) -> FinalReport:
    """Snapshot the worker's end-of-run state for the Collect barrier."""
    program = processor.app.program
    main = processor.loops.get(MAIN_LOOP)
    values: tuple = ()
    if main is not None:
        values = tuple(sorted(
            ((vertex_id, program.snapshot_value(state.value))
             for vertex_id, state in main.vertices.items()),
            key=lambda kv: repr(kv[0])))
    totals: dict[str, tuple[int, int, int, int, int]] = {}
    for name, loop in processor.loops.items():
        totals[name] = (loop.commits_total, loop.sent_total,
                        loop.gathered_total, loop.prepares_recorded,
                        loop.inputs_gathered)
    for name, entry in processor.loop_archive.items():
        if name not in totals:
            totals[name] = (entry[0], entry[1], entry[2], entry[3], 0)
    return FinalReport(
        processor=processor.name,
        incarnation=incarnation,
        main_values=values,
        loop_totals=tuple(sorted(totals.items())),
        trace_counts=tuple(sorted(kernel.trace.phase_counts().items())),
        events_processed=kernel.events_processed,
        retransmissions=processor.transport.retransmissions,
        trace_evicted=kernel.trace.evicted,
        frames_out=processor.network.frames_out,
        channel_sent=tuple(processor.network.sent.items()),
        channel_received=tuple(processor.network.received.items()),
        **vars(stats),
    )


def _await_store_load(net: WorkerNet) -> StoreLoad | None:
    """Block until the master's StoreLoad arrives, stashing any other
    frames (peers may already be sending) for delivery after hydration."""
    deadline = time.monotonic() + HYDRATION_TIMEOUT
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("no StoreLoad within hydration timeout")
        try:
            item = net.inbound.get(timeout=min(remaining, 1.0))
        except queue.Empty:
            continue
        if isinstance(item, StoreLoad):
            return item
        if isinstance(item, Shutdown):
            return None
        net.stash.append(item)


def worker_main(spec: WorkerSpec, inbound: Any, outbound: Any,
                peers_in: dict[str, Any] | None = None,
                peers_out: dict[str, Any] | None = None) -> None:
    """Process entrypoint (must stay importable at module top level:
    the spawn start method pickles it by reference).  ``peers_in`` /
    ``peers_out`` map a peer's name to the direct queue from / to it; a
    respawned incarnation has none and talks through the master."""
    config = spec.config
    try:
        recorder = TraceRecorder(capacity=config.trace_capacity,
                                 enabled=config.trace_enabled)
        kernel = LiveKernel(seed=config.seed, recorder=recorder)
        net = WorkerNet(kernel, spec.name, outbound, inbound,
                        peers_in, peers_out)
        partition = PartitionScheme(list(spec.worker_names))
        store = WorkerStore()
        backend = LiveBackend(store, net, spec.name)
        processor = Processor(kernel, spec.name, config, spec.app,
                              partition, store, backend, net, MASTER_NAME,
                              manifest=None)
        # Swap in the incarnation-namespaced transport before any message
        # flows (see repro.live.transport: a respawn must not reuse ids
        # its peers' dedup windows remember).
        processor.transport = LiveTransport(
            kernel, net, spec.name, timeout=config.retransmit_timeout,
            incarnation=spec.incarnation)
        # Channel counts ride a report only when every frame taken in has
        # been handled; a tick that fires with the inbox still loaded
        # reports none, and the next flush or quiet edge reports them.
        processor.channel_counts = lambda: (None if kernel.ready_count
                                            else net.counts())

        if spec.recovering:
            net.send_control(FetchStore(spec.name))
            load = _await_store_load(net)
            if load is None:
                return
            store.hydrate(load.entries)
            # Same sequence as Actor.recover: announce, then restart the
            # report tick; the master replies with RecoverLoops.
            processor.on_recover()
        else:
            processor.start()

        stats = LoopStats()
        collect_pending = False
        running = True
        while running:
            batch = net.take_batch()
            if not batch and not kernel.ready_count:
                # Quiet edge: about to block.
                if processor.report_if_evidence_changed():
                    stats.reports_quiet_edge += 1
                delay = kernel.next_timer_delay()
                blocked_at = time.monotonic()
                batch = net.take_batch(
                    IDLE_POLL if delay is None else min(delay, IDLE_POLL))
                stats.blocked_s += time.monotonic() - blocked_at
            if batch:
                stats.intake_batches += 1
                stats.frames_in += len(batch)
            for item in batch:
                if isinstance(item, Wire):
                    kernel.observe(item.stamp)
                    processor.deliver(item.payload, item.src)
                elif isinstance(item, PeerDown):
                    net.drop_peer(item.processor)
                elif isinstance(item, Collect):
                    collect_pending = True
                elif isinstance(item, Shutdown):
                    running = False
            # Every flush between two reads of ``backend.flushes`` has one
            # cause: ``on_idle`` under run_ready, the tick under timers.
            flushes = backend.flushes
            kernel.run_ready(limit=READY_SLICE)
            stats.reports_idle += backend.flushes - flushes
            flushes = backend.flushes
            kernel.fire_due_timers()
            stats.reports_tick += backend.flushes - flushes
            if collect_pending and not kernel.ready_count \
                    and not net.stash:
                # FIFO guarantees everything sent before the Collect has
                # been dequeued; with the ready queue drained the counters
                # and values below are final.
                net.send_control(build_final_report(
                    processor, kernel, spec.incarnation, stats))
                collect_pending = False
    except Exception:  # pragma: no cover - surfaced by the master pump
        outbound.put(WorkerError(spec.name, spec.incarnation,
                                 traceback.format_exc()))
        raise
