"""The worker process: one unmodified ``Processor`` behind two queues.

Spawned (not forked) so each worker is a genuinely fresh interpreter —
which is also why the determinism bug batch matters: with hash
randomisation, any set-iteration-order dependence in the protocol hot
paths would make two workers disagree on scatter order.

The loop is event-driven and works in batches:

1. *Intake.*  Take every frame already on the inbound queue (FIFO, at
   most :data:`INTAKE_SLICE`) into the actor inbox before running
   anything, so a burst of wires is one inbox drain, one ``on_idle`` and
   therefore one ``StoreWrite`` + one ``ProgressReport`` — what the
   simulator does with messages that share an instant.  Control frames
   (StoreLoad hydration, Collect barrier, Shutdown) are answered outside
   the actor inbox and end the batch they arrive in.
2. *Run.*  A bounded slice of the ready FIFO, then the due wall-clock
   timers (retransmits, report ticks); the bound keeps a long compute
   phase from starving intake.
3. *Quiet edge.*  With nothing at hand and nothing ready the worker is
   about to block.  If what it last told the master differs from what is
   true now (``Processor.report_if_evidence_changed``) it reports first —
   convergence never waits out ``report_interval``; the tick is a
   liveness heartbeat.  Then it blocks on the queue until a frame arrives
   or the next timer is due.
"""

from __future__ import annotations

import queue
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.core.messages import MAIN_LOOP
from repro.core.partition import PartitionScheme
from repro.core.processor import Processor
from repro.live.kernel import LiveKernel
from repro.live.store import LiveBackend, WorkerStore
from repro.live.transport import LiveTransport, WorkerNet
from repro.live.wire import (Collect, FinalReport, Shutdown, StoreLoad,
                             FetchStore, Wire, WorkerError, WorkerSpec)
from repro.obs import TraceRecorder

MASTER_NAME = "master"

#: How long a recovering worker waits for its StoreLoad before giving up.
HYDRATION_TIMEOUT = 60.0
#: Frames taken from the inbound queue per loop turn.
INTAKE_SLICE = 256
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
    metrics = kernel.metrics
    wire_rows = int(metrics.counter("core.wire_packed_rows").value
                    + metrics.counter("core.wire_row_gathers").value)
    return FinalReport(
        processor=processor.name,
        incarnation=incarnation,
        main_values=values,
        loop_totals=tuple(sorted(totals.items())),
        trace_counts=tuple(sorted(kernel.trace.phase_counts().items())),
        events_processed=kernel.events_processed,
        retransmissions=processor.transport.retransmissions,
        trace_evicted=kernel.trace.evicted,
        wire_rows=wire_rows,
        frames_out=processor.network.frames_out,
        **vars(stats),
    )


def take_batch(inbound: Any, stash: deque,
               timeout: float | None = None) -> list[Any]:
    """Up to :data:`INTAKE_SLICE` frames in arrival order: stashed frames
    first, then whatever the queue holds.  With a ``timeout`` the call
    blocks that long for the *first* frame; the rest is only what is
    already there.  A control frame ends the batch, so Collect and
    Shutdown see the loop state they saw when frames came one a turn."""
    batch: list[Any] = []
    while len(batch) < INTAKE_SLICE:
        try:
            if stash:
                item = stash.popleft()
            elif batch or timeout is None:
                item = inbound.get_nowait()
            else:
                item = inbound.get(timeout=timeout)
        except queue.Empty:
            break
        batch.append(item)
        if not isinstance(item, Wire):
            break
    return batch


def _await_store_load(inbound: Any, stash: deque) -> StoreLoad | None:
    """Block until the master's StoreLoad arrives, stashing any other
    frames (peers may already be sending) for delivery after hydration."""
    deadline = time.monotonic() + HYDRATION_TIMEOUT
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("no StoreLoad within hydration timeout")
        try:
            item = inbound.get(timeout=min(remaining, 1.0))
        except queue.Empty:
            continue
        if isinstance(item, StoreLoad):
            return item
        if isinstance(item, Shutdown):
            return None
        stash.append(item)


def worker_main(spec: WorkerSpec, inbound: Any, outbound: Any) -> None:
    """Process entrypoint (must stay importable at module top level:
    the spawn start method pickles it by reference)."""
    config = spec.config
    try:
        recorder = TraceRecorder(capacity=config.trace_capacity,
                                 enabled=config.trace_enabled)
        kernel = LiveKernel(seed=config.seed, recorder=recorder)
        net = WorkerNet(kernel, spec.name, outbound)
        partition = PartitionScheme(list(spec.worker_names))
        store = WorkerStore(
            delta_path=config.delta_path,
            columnar=config.columnar,
            rebase_interval=config.store_rebase_interval,
            snapshot_cache_size=config.store_snapshot_cache_size)
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

        stash: deque = deque()
        if spec.recovering:
            net.send_control(FetchStore(spec.name))
            load = _await_store_load(inbound, stash)
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
            batch = take_batch(inbound, stash)
            if not batch and not kernel.ready_count:
                # Quiet edge: about to block.
                if processor.report_if_evidence_changed():
                    stats.reports_quiet_edge += 1
                delay = kernel.next_timer_delay()
                blocked_at = time.monotonic()
                batch = take_batch(
                    inbound, stash,
                    IDLE_POLL if delay is None else min(delay, IDLE_POLL))
                stats.blocked_s += time.monotonic() - blocked_at
            if batch:
                stats.intake_batches += 1
                stats.frames_in += len(batch)
            for item in batch:
                if isinstance(item, Wire):
                    kernel.observe(item.stamp)
                    processor.deliver(item.payload, item.src)
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
            if collect_pending and not kernel.ready_count and not stash:
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
