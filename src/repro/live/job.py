"""The live job driver: master-process pump loop and worker lifecycle.

:class:`LiveJob` is what ``TornadoJob(app, TornadoConfig(backend="live"))``
actually constructs.  It hosts the unmodified :class:`Master` and
:class:`Ingester` actors (plus the authoritative store and checkpoint
manifest) on a :class:`LiveKernel` in the calling process, spawns one OS
process per Tornado processor, and runs a ``split_managed``-style pump:
the master hands out control, data does not cross it.

Topology.  Before the first spawn the driver creates one queue per
ordered worker pair and hands each worker its ends; session traffic
(updates, PREPARE/ACK, their transport acks) travels on those and never
reaches this process.  A worker's queue pair with the master carries
control only: ingester inputs, ``IterationTerminated`` and recovery
messages one way; ``StoreWrite``, progress reports, acks to the ingester
and final reports the other.  The one exception is recovery: a respawned
incarnation cannot be given the direct queues (they cannot be pickled
after the fact), so its peers drop theirs on ``PeerDown`` and its traffic
is relayed — the ``forward`` branch of :meth:`LiveJob._handle_item`,
counted by ``live.pump.relayed`` and 0 on a healthy run.

The pump is event-driven.  A *pass* (:meth:`LiveJob._pump_once`) drains
what the workers have sent (at most :data:`DRAIN_SLICE` frames per
worker), runs the ready actor work and fires the due wall-clock timers;
passes repeat while they find work, and parked stream feeds are released
when one finds none.  Then the master *blocks* in :meth:`LiveJob._wait`:
``multiprocessing.connection.wait`` on every live worker's outbound pipe
and process sentinel, until a frame arrives, a worker dies, the next
master-side timer is due or the caller's deadline passes — it never
polls.

Convergence is decided exactly, without waiting
(:meth:`LiveJob.quiescent`): the :class:`ProgressTracker` predicate the
simulator uses, plus the per-channel counts of payload frames the same
reports carry, which say nothing is in flight
(:meth:`ProgressTracker.channels`).

What it deliberately does **not** support yet: branch-loop queries and
the live rebalancer (both raise) — the main loop, crash recovery and the
checkpoint protocol are the load-bearing surface the DES cross-check can
actually vouch for.
"""

from __future__ import annotations

import atexit
import multiprocessing
import queue
import time
from dataclasses import dataclass, fields
from multiprocessing.connection import wait as wait_any
from typing import Any, Callable, Iterable

from repro.core.config import TornadoConfig
from repro.core.ingester import Ingester
from repro.core.job import TornadoJob
from repro.core.master import Master, MasterDurableState
from repro.core.messages import MAIN_LOOP
from repro.core.partition import PartitionScheme
from repro.core.vertex import Application
from repro.errors import QueryError, SimulationError
from repro.live.kernel import LiveKernel
from repro.live.transport import MasterNet
from repro.live.wire import (Collect, FetchStore, FinalReport, PeerDown,
                             Shutdown, StoreLoad, StoreWrite, Wire,
                             WorkerError, WorkerSpec)
from repro.live.worker import LoopStats, worker_main
from repro.obs import TraceRecorder
from repro.storage import CheckpointManifest, VersionedStore
from repro.streams.model import StreamTuple

#: Items drained from one worker's outbound queue per pump pass.
DRAIN_SLICE = 256
#: ``FinalReport`` fields :meth:`LiveJob.worker_stats` surfaces.
WORKER_STAT_FIELDS = (*(field.name for field in fields(LoopStats)),
                      "frames_out", "channel_sent", "channel_received")


@dataclass
class _WorkerLink:
    """Master-side handle on one worker process."""

    queue_in: Any
    queue_out: Any
    process: Any
    incarnation: int
    alive: bool = True
    #: Frames drained from ``queue_out`` (timeout diagnostics).
    frames: int = 0


class LiveJob(TornadoJob):
    """One Tornado deployment on real OS processes."""

    def __init__(self, app: Application,
                 config: TornadoConfig | None = None) -> None:
        # Deliberately no super().__init__: the simulator-side wiring
        # (Simulator, Network, FailureInjector, in-process Processors)
        # is replaced wholesale.
        self.app = app
        self.config = config if config is not None else TornadoConfig(
            backend="live")
        recorder = TraceRecorder(capacity=self.config.trace_capacity,
                                 enabled=self.config.trace_enabled)
        self.kernel = LiveKernel(seed=self.config.seed, recorder=recorder)
        #: Simulator alias so inherited helpers (``trace``, ``metrics``)
        #: resolve against the live kernel.
        self.sim = self.kernel
        self.store = VersionedStore()
        self.manifest = CheckpointManifest()
        self.durable = MasterDurableState()
        self._worker_names = [f"proc-{i}"
                              for i in range(self.config.n_processors)]
        self.partition = PartitionScheme(self._worker_names)
        self._links: dict[str, _WorkerLink] = {}
        self.net = MasterNet(self.kernel, self._links)
        self.master = Master(self.kernel, self.MASTER, self.config,
                             self.net, self._worker_names, self.INGESTER,
                             self.manifest, self.durable, self.partition)
        self.ingester = Ingester(self.kernel, self.INGESTER, self.config,
                                 app, self.partition, self.net,
                                 self.MASTER)
        #: Final reports gathered by the last :meth:`finalize` barrier.
        self.reports: dict[str, FinalReport] = {}
        metrics = self.kernel.metrics
        self._m_wakeups = metrics.counter("live.pump.wakeups")
        self._m_blocked = metrics.counter("live.pump.blocked_s")
        self._m_frames = metrics.counter("live.pump.frames")
        self._m_relayed = metrics.counter("live.pump.relayed")
        self._ctx = multiprocessing.get_context("spawn")
        names = self._worker_names
        #: (src, dst) -> the direct queue of that ordered pair.  Made
        #: here because a queue can only reach a process as a spawn
        #: argument, and kept for the job's life: the semaphores inside
        #: are unlinked when this process lets go of them, which a worker
        #: still booting would not survive.
        self._peer_queues = {(src, dst): self._ctx.Queue()
                             for src in names for dst in names
                             if src != dst}
        self._closed = False
        atexit.register(self.shutdown)
        for name in names:
            self._spawn(name, incarnation=0, recovering=False)

    # ------------------------------------------------------ worker lifecycle
    def _spawn(self, name: str, incarnation: int,
               recovering: bool) -> None:
        queue_in = self._ctx.Queue()
        queue_out = self._ctx.Queue()
        spec = WorkerSpec(name, incarnation, self.app, self.config,
                          tuple(self._worker_names), recovering)
        # Only first incarnations get direct queues; a respawned one is
        # reached through the master (its peers were told PeerDown).
        pairs = {} if recovering else self._peer_queues
        peers_in = {src: channel for (src, dst), channel in pairs.items()
                    if dst == name}
        peers_out = {dst: channel for (src, dst), channel in pairs.items()
                     if src == name}
        process = self._ctx.Process(
            target=worker_main,
            args=(spec, queue_in, queue_out, peers_in, peers_out),
            daemon=True, name=f"tornado-live-{name}")
        process.start()
        self._links[name] = _WorkerLink(queue_in, queue_out, process,
                                        incarnation)
        self.net.sent[name] = 0

    def kill_worker(self, name: str) -> None:
        """SIGKILL a worker mid-run (fault injection).  Messages queued
        toward it are lost — the live analogue of the simulated
        network's down-actor drop; reliable-transport retransmits and
        the recovery protocol pick up the pieces after a respawn.  Every
        survivor is told ``PeerDown`` and drops its direct queues to the
        name; the next incarnation is reached through the master."""
        link = self._links[name]
        link.alive = False      # out of the wait set from here on
        link.process.kill()
        link.process.join(timeout=10)
        link.queue_in.close()
        link.queue_in.cancel_join_thread()
        # What the incarnation had already sent is handled now (a
        # WorkerError among it raises here); nothing reads its pipe again.
        self._drain_dead(link)
        link.queue_out.close()
        for peer in self._links.values():
            if peer.alive:
                peer.queue_in.put(PeerDown(name))

    def respawn_worker(self, name: str) -> None:
        """Restart a killed worker as a fresh incarnation.  It hydrates
        its local store from the master (FetchStore/StoreLoad), announces
        ``ProcessorRecovered`` and rejoins the protocol."""
        link = self._links[name]
        if link.alive:
            raise ValueError(f"worker {name!r} is still alive")
        self._spawn(name, incarnation=link.incarnation + 1,
                    recovering=True)

    def _wait(self, limit: float) -> None:
        """Block until a worker has sent something, a worker process has
        exited, the next master-side timer is due, or ``limit`` seconds
        have passed — whichever is first.  A worker found dead raises,
        with its traceback if it left one."""
        delay = self.kernel.next_timer_delay()
        timeout = limit if delay is None else min(limit, delay)
        waitables = []
        for link in self._links.values():
            if link.alive:
                # The queue's read end of its pipe: readable exactly
                # when ``get_nowait`` would find a frame.
                waitables.append(link.queue_out._reader)
                waitables.append(link.process.sentinel)
        started = time.monotonic()
        ready = wait_any(waitables, timeout)
        self._m_blocked.inc(time.monotonic() - started)
        self._m_wakeups.inc()
        for name, link in self._links.items():
            if link.alive and link.process.sentinel in ready:
                link.alive = False
                self._drain_dead(link)  # surface a WorkerError if any
                link.process.join(timeout=1.0)
                raise RuntimeError(
                    f"live worker {name!r} died unexpectedly "
                    f"(exit code {link.process.exitcode})")

    # ------------------------------------------------------------- the pump
    def _handle_item(self, item: Any) -> None:
        if isinstance(item, Wire):
            actor = self.kernel.actors.get(item.dst)
            if actor is not None:
                self.kernel.observe(item.stamp)
                actor.deliver(item.payload, item.src)
            else:
                # The relay: one end of this wire is a respawned
                # incarnation, which has no direct queues.
                self._m_relayed.inc()
                self.net.forward(item)
        elif isinstance(item, StoreWrite):
            for loop, key, iteration, value in item.entries:
                self.store.put(loop, key, iteration, value)
            for loop, iteration in item.frontiers:
                self.manifest.record_flush(loop, item.processor, iteration)
        elif isinstance(item, FetchStore):
            link = self._links.get(item.processor)
            if link is not None and link.alive:
                link.queue_in.put(
                    StoreLoad(tuple(self.store.export_versions())))
        elif isinstance(item, FinalReport):
            self.reports[item.processor] = item
        elif isinstance(item, WorkerError):
            raise RuntimeError(
                f"live worker {item.processor!r} "
                f"(incarnation {item.incarnation}) failed:\n{item.error}")

    def _drain_link(self, link: _WorkerLink) -> int:
        drained = 0
        for _ in range(DRAIN_SLICE):
            try:
                item = link.queue_out.get_nowait()
            except queue.Empty:
                break
            drained += 1
            self._handle_item(item)
        link.frames += drained
        self._m_frames.inc(drained)
        return drained

    def _drain_dead(self, link: _WorkerLink) -> None:
        """Handle everything a dead incarnation left on its pipe."""
        while self._drain_link(link):
            pass

    def _pump_once(self) -> bool:
        """One pump pass; returns whether any work happened."""
        progressed = 0
        for link in self._links.values():
            if link.alive:
                progressed += self._drain_link(link)
        progressed += self.kernel.run_ready(limit=4096)
        progressed += self.kernel.fire_due_timers()
        return progressed > 0

    def _release_parked(self) -> bool:
        """Release parked stream feeds once the master is otherwise idle
        and every live worker has been heard from (a fresh worker's first
        report, a respawned one's FetchStore): inputs sent to a process
        that is still booting only start retransmit clocks it cannot
        answer in time.  Returns whether anything was released."""
        if self.kernel.ready_count or not self.kernel.parked_count:
            return False
        if any(link.alive and not link.frames
               for link in self._links.values()):
            return False
        self.kernel.release_parked()
        return True

    def _channels(self) -> tuple[list[str], dict[tuple[str, str], tuple]]:
        """:meth:`ProgressTracker.channels` over the live workers as of
        now: the workers whose last report carries no counts, and every
        channel's ``(sent, received)``."""
        tracker = self.master.trackers[MAIN_LOOP]
        return tracker.channels({name: self.net.sent[name]
                                 for name, link in self._links.items()
                                 if link.alive})

    def quiescent(self) -> bool:
        """Whether the main loop has converged — exact at the instant it
        is asked, after an idle pump pass or slice.  Two conjuncts:

        1. the simulator's predicate: every worker's last report is
           passive (:func:`~repro.core.progress.passive`), and the
           master and the ingester have nothing parked, ready or
           unacknowledged;
        2. on every open channel — worker→worker and master→worker — the
           receiver has taken exactly the payload frames the sender put,
           as the same reports state them.

        Why that needs no waiting: a passive worker can only be woken by
        a payload frame — its timers are the report tick, which changes
        nothing, and retransmits, which need an unacked envelope, and
        every peer-bound send is an envelope it counts as unacked.  So
        if any worker handled a payload after its report, take the first
        such handling anywhere.  Its frame was sent either before the
        sender's own report — then it is in the sender's ``sent`` and,
        channels being FIFO, not in the receiver's ``received``,
        contradicting 2 — or after it, which needs an earlier wake-up of
        the sender, contradicting "first".  The master's ``sent`` is
        read live, so a frame it sent is always in it, and with 1 it has
        no reason to send another: a later heartbeat report repeats the
        view it already has.  Received-but-unhandled frames cannot hide
        either: a report taken with frames unhandled carries no counts.
        Acks are not counted because an ack can only make its receiver
        more passive (``repro.live.transport.is_payload``)."""
        tracker = self.master.trackers[MAIN_LOOP]
        if not tracker.started or not tracker.converged:
            return False
        if self.kernel.parked_count or self.kernel.ready_count:
            return False
        if self.master.transport.unacked or self.ingester.transport.unacked:
            return False
        unknown, channels = self._channels()
        return not unknown and all(sent == received
                                   for sent, received in channels.values())

    def run_until_converged(self, timeout: float = 120.0) -> float:
        """Pump until the main loop converges; returns on the first idle
        pass on which :meth:`quiescent` holds.  Returns the wall-clock
        seconds spent.  Raises ``TimeoutError`` with per-worker and
        per-channel diagnostics if convergence is not reached in time."""
        started = time.monotonic()
        deadline = started + timeout
        while True:
            if self._pump_once() or self._release_parked():
                continue
            if self.quiescent():
                return time.monotonic() - started
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"live run did not converge within {timeout:g}s\n"
                    + self.diagnostics())
            self._wait(remaining)

    def pump_for(self, seconds: float) -> None:
        """Pump the deployment for a wall-clock duration (the live
        analogue of ``run_for`` — used to get a run mid-flight before
        injecting a fault)."""
        deadline = time.monotonic() + seconds
        while (remaining := deadline - time.monotonic()) > 0:
            if not self._pump_once() and not self._release_parked():
                self._wait(remaining)

    def diagnostics(self) -> str:
        """Where the deployment stands — one line for the master, one per
        worker, one for the channel counts as last reported, and one
        naming what the convergence predicate is still waiting for:
        channels with frames in flight, workers whose last report carries
        no counts.  What a ``TimeoutError`` of this module carries."""
        tracker = self.master.trackers[MAIN_LOOP]
        lines = [
            f"master: tracker started={tracker.started} "
            f"frontier={tracker.frontier} "
            f"parked={self.kernel.parked_count} "
            f"ready={self.kernel.ready_count} "
            f"unacked={self.master.transport.unacked} "
            f"ingester unacked={self.ingester.transport.unacked} "
            f"dropped={self.net.dropped} "
            f"relayed={int(self._m_relayed.value)}"]
        for name, link in self._links.items():
            view = tracker.view(name)
            lines.append(f"{name}: alive={link.alive} "
                         f"exitcode={link.process.exitcode} "
                         f"incarnation={link.incarnation} "
                         f"frames drained={link.frames} "
                         f"last report seq={view.seq} "
                         f"unacked={view.unacked} "
                         f"buffered={view.buffered} "
                         f"watermark={view.watermark}")
        unknown, channels = self._channels()
        lines.append("channels (sent/received): " + ", ".join(
            f"{src}→{dst} {sent}/{received}"
            for (src, dst), (sent, received) in channels.items()))
        in_flight = [f"{src}→{dst}: {sent} sent, {received} received"
                     for (src, dst), (sent, received) in channels.items()
                     if sent != received]
        lines.append("in flight: " + ("; ".join(in_flight) or "nothing"))
        if unknown:
            lines.append("no channel counts in the last report of: "
                         + ", ".join(unknown))
        return "\n".join(lines)

    # ------------------------------------------------------------- feeding
    def feed(self, tuples: Iterable[StreamTuple]) -> int:
        return self.ingester.schedule_stream(tuples)

    # ----------------------------------------------------- sim-API surface
    def run(self, until: float | None = None) -> float:
        if until is not None:
            raise SimulationError(
                "backend='live' has no virtual clock; use "
                "run_until_converged() or pump_for()")
        return self.run_until_converged()

    def run_for(self, duration: float) -> float:
        self.pump_for(duration)
        return self.kernel.now

    def run_until(self, predicate: Callable[[], bool],
                  max_events: int = 50_000_000) -> float:
        raise SimulationError(
            "backend='live' has no virtual clock; use "
            "run_until_converged() or pump_for()")

    def run_until_quiescent(self, extra: float = 0.0) -> float:
        self.run_until_converged()
        if extra:
            self.pump_for(extra)
        return self.kernel.now

    def query(self, full_activation: bool = False) -> int:
        raise QueryError(
            "branch-loop queries are not supported on backend='live' yet"
            " (see DESIGN.md §3h)")

    query_and_wait = query

    def wait_for_query(self, query_id: int,
                       max_events: int = 50_000_000):
        raise QueryError(
            "branch-loop queries are not supported on backend='live' yet")

    def endpoints(self) -> list:
        return [self.master.transport, self.ingester.transport]

    # ----------------------------------------------------------- finalizing
    def finalize(self, timeout: float = 30.0) -> dict[str, FinalReport]:
        """Collect barrier: ask every live worker for its final report
        (in-memory values, loop totals, trace phase counts)."""
        self.reports = {}
        wanted = {name for name, link in self._links.items() if link.alive}
        for name in wanted:
            self._links[name].queue_in.put(Collect())
        deadline = time.monotonic() + timeout
        while wanted - set(self.reports):
            if self._pump_once():
                continue
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                missing = sorted(wanted - set(self.reports))
                raise TimeoutError(
                    f"no FinalReport from {missing} within "
                    f"{timeout:g}s\n" + self.diagnostics())
            self._wait(remaining)
        return self.reports

    def main_values(self) -> dict[Any, Any]:
        if not self.reports:
            self.finalize()
        merged: dict[Any, Any] = {}
        for report in self.reports.values():
            for vertex_id, value in report.main_values:
                merged[vertex_id] = value
        # Same fallback as the simulator job: vertices whose owner died
        # and whose state only survives in the (master's) store.
        for vertex_id, (value, _targets) in self.store.snapshot(
                MAIN_LOOP, internal=True).items():
            if vertex_id not in merged:
                merged[vertex_id] = value
        return merged

    def loop_totals(self, loop: str) -> dict[str, int]:
        if not self.reports:
            self.finalize()
        totals = {"commits": 0, "sent": 0, "gathered": 0, "prepares": 0}
        for report in self.reports.values():
            for name, entry in report.loop_totals:
                if name != loop:
                    continue
                totals["commits"] += entry[0]
                totals["sent"] += entry[1]
                totals["gathered"] += entry[2]
                totals["prepares"] += entry[3]
        return totals

    @property
    def total_commits(self) -> int:
        return self._total_index(0)

    @property
    def total_prepares(self) -> int:
        return self._total_index(3)

    @property
    def total_updates_gathered(self) -> int:
        return self._total_index(2)

    def _total_index(self, index: int) -> int:
        if not self.reports:
            self.finalize()
        return sum(entry[index] for report in self.reports.values()
                   for _name, entry in report.loop_totals)

    def worker_stats(self) -> dict[str, dict[str, Any]]:
        """Each worker's loop counters as of the last :meth:`finalize`:
        intake batches, frames in/out, reports by cause, seconds blocked
        and payload frames per channel (``channel_sent`` by destination,
        ``channel_received`` by source) — the worker-side half of
        ``live.pump.*``."""
        if not self.reports:
            self.finalize()
        def stat(report: FinalReport, field: str) -> Any:
            value = getattr(report, field)
            return dict(value) if isinstance(value, tuple) else value

        return {name: {field: stat(report, field)
                       for field in WORKER_STAT_FIELDS}
                for name, report in sorted(self.reports.items())}

    def trace_phase_counts(self) -> dict[str, int]:
        """Protocol-phase totals merged across the master recorder and
        every worker's final report — the live side of the oracle."""
        if not self.reports:
            self.finalize()
        merged = dict(self.kernel.trace.phase_counts())
        for report in self.reports.values():
            for key, count in report.trace_counts:
                merged[key] = merged.get(key, 0) + count
        return dict(sorted(merged.items()))

    # ------------------------------------------------------------- shutdown
    def shutdown(self) -> None:
        """Stop every worker process and release the queues.  Idempotent;
        also registered with ``atexit`` so an aborted test run cannot
        leak orphan processes."""
        if self._closed:
            return
        self._closed = True
        atexit.unregister(self.shutdown)
        for link in self._links.values():
            if link.alive:
                try:
                    link.queue_in.put_nowait(Shutdown())
                except (ValueError, OSError):
                    pass
        for link in self._links.values():
            link.process.join(timeout=5)
            if link.process.exitcode is None:
                link.process.kill()
                link.process.join(timeout=5)
        for q in (*(end for link in self._links.values()
                    for end in (link.queue_in, link.queue_out)),
                  *self._peer_queues.values()):
            try:
                q.close()
                q.cancel_join_thread()
            except (ValueError, OSError):
                pass

    close = shutdown

    def __enter__(self) -> "LiveJob":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()
