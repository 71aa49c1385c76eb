"""The event-driven live data plane: the master's blocking multi-wait
pump, the worker's batched intake and its quiet-edge reports.

Everything here spawns real worker processes except the two unit tests
that drive a ``Processor`` / ``worker_main`` in this process.
"""

import math
import os
import queue
import signal
import threading
import time

import pytest

from repro.algorithms import EdgeStreamRouter
from repro.algorithms.sssp import SSSPProgram, reference_sssp
from repro.core import Application, TornadoConfig, TornadoJob
from repro.core.ingester import Ingester
from repro.core.messages import (MAIN_LOOP, Envelope, ProgressReport,
                                 TransportAck)
from repro.core.partition import PartitionScheme
from repro.core.processor import Processor
from repro.live.kernel import LiveKernel
from repro.live.store import LiveBackend, WorkerStore
from repro.live.transport import WorkerNet
from repro.live.wire import (Collect, FinalReport, Shutdown, StoreWrite,
                             Wire, WorkerSpec)
from repro.live.worker import worker_main
from repro.streams import UniformRate, edge_stream
from tests.test_live_backend import FakeQueue

BASE_EDGES = [("s", "a"), ("s", "b"), ("a", "c"), ("b", "c"),
              ("c", "d"), ("d", "e"), ("b", "e"), ("e", "f")]
DELTAS = [[("f", f"g{i}"), (f"g{i}", f"h{i}")] for i in range(12)]
BURST = UniformRate(rate=1e9)


def sssp_app():
    return Application(SSSPProgram("s"), EdgeStreamRouter(), name="sssp")


def live_job(**kwargs):
    kwargs.setdefault("n_processors", 2)
    kwargs.setdefault("report_interval", 0.02)
    kwargs.setdefault("storage_backend", "memory")
    kwargs.setdefault("seed", 7)
    return TornadoJob(sssp_app(), TornadoConfig(backend="live", **kwargs))


def finite_distances(values):
    return {vid: value.distance for vid, value in values.items()
            if not math.isinf(value.distance)}


def reference(edges):
    return {v: d for v, d in reference_sssp(edges, "s").items()
            if not math.isinf(d)}


def reports_in(frames):
    """The progress reports among ``frames``: a report is state and
    travels bare, without an envelope."""
    return [frame.payload for frame in frames
            if isinstance(frame, Wire)
            and isinstance(frame.payload, ProgressReport)]


class TestQuietEdgeReport:
    def test_ack_that_empties_pending_is_reported(self):
        """A transport ack changes ``pending_by_tag`` without passing
        ``_dispatch``: ``on_idle`` stays silent, the quiet-edge check
        reports — once."""
        kernel = LiveKernel()
        outbound = FakeQueue()
        net = WorkerNet(kernel, "proc-0", outbound)
        store = WorkerStore()
        config = TornadoConfig(backend="live", n_processors=2,
                               report_interval=5.0)
        processor = Processor(kernel, "proc-0", config, sssp_app(),
                              PartitionScheme(["proc-0", "proc-1"]), store,
                              LiveBackend(store, net, "proc-0"), net,
                              "master")
        processor.transport.send("proc-1", "update", tag=MAIN_LOOP)
        msg_id = outbound.items[-1].payload.msg_id
        assert processor.report_if_evidence_changed()
        assert reports_in(outbound.items)[-1].unacked == 1
        assert not processor.report_if_evidence_changed()

        processor.deliver(TransportAck(msg_id), "proc-1")
        kernel.run_ready()      # handle + on_idle
        assert len(reports_in(outbound.items)) == 1   # on_idle was silent
        assert processor.report_if_evidence_changed()
        assert reports_in(outbound.items)[-1].unacked == 0
        assert not processor.report_if_evidence_changed()

    def test_channel_counts_ride_the_report(self):
        """Counts that move without a dispatch (a retransmit put straight
        on the fabric) are reported once; a report taken with a frame
        still unhandled carries none, and the quiet edge then does."""
        kernel = LiveKernel()
        outbound = FakeQueue()
        net = WorkerNet(kernel, "proc-0", outbound, FakeQueue(),
                        {"proc-1": FakeQueue()}, {"proc-1": FakeQueue()})
        store = WorkerStore()
        config = TornadoConfig(backend="live", n_processors=2,
                               report_interval=5.0)
        processor = Processor(kernel, "proc-0", config, sssp_app(),
                              PartitionScheme(["proc-0", "proc-1"]), store,
                              LiveBackend(store, net, "proc-0"), net,
                              "master")
        processor.channel_counts = lambda: (None if kernel.ready_count
                                            else net.counts())
        assert processor.report_if_evidence_changed()
        assert reports_in(outbound.items)[-1].channels == net.counts()
        assert not processor.report_if_evidence_changed()

        net.send("proc-0", "proc-1", Envelope(7, "update"))
        assert processor.report_if_evidence_changed()
        assert reports_in(outbound.items)[-1].channels[0] == \
            (("proc-1", 1),)
        assert not processor.report_if_evidence_changed()

        processor.deliver(TransportAck(3), "proc-1")
        processor._flush_then_report()          # the frame is unhandled
        assert reports_in(outbound.items)[-1].channels is None
        kernel.run_ready()
        assert processor.report_if_evidence_changed()
        assert reports_in(outbound.items)[-1].channels == net.counts()

    def test_converges_without_report_ticks(self):
        """With the tick effectively off, every delta still converges at
        once: termination evidence travels on idle and quiet-edge
        reports.  (Before the quiet-edge report an op whose last evidence
        change was a transport ack sat until the next tick.)"""
        job = live_job(report_interval=5.0)
        try:
            job.feed(edge_stream(BASE_EDGES, BURST))
            job.run_until_converged(timeout=30.0)
            edges = list(BASE_EDGES)
            for delta in DELTAS:
                edges += delta
                job.feed(edge_stream(delta, BURST))
                assert job.run_until_converged(timeout=30.0) < 1.0
            assert finite_distances(job.main_values()) == reference(edges)
            stats = job.worker_stats()
            assert sum(s["reports_quiet_edge"] for s in stats.values()) > 0
            assert sum(s["reports_tick"] for s in stats.values()) == 0
        finally:
            job.shutdown()


class TestBatchedIntake:
    def test_queued_burst_is_one_report(self):
        """N wires on the queue before the worker looks are one intake
        batch, one inbox drain, one ``on_idle`` and so one StoreWrite +
        one ProgressReport — not N."""
        config = TornadoConfig(backend="live", n_processors=1,
                               report_interval=5.0,
                               storage_backend="memory")
        app = sssp_app()
        kernel = LiveKernel()
        wires = []

        class CaptureNet:
            def send(self, src, dst, message):
                wires.append(Wire(src, dst, kernel.tick(), message))

        ingester = Ingester(kernel, "ingester", config, app,
                            PartitionScheme(["proc-0"]), CaptureNet(),
                            "master")
        ingester.schedule_stream(edge_stream(BASE_EDGES, BURST))
        kernel.release_parked()
        kernel.run_ready()
        assert len(wires) >= len(BASE_EDGES)

        inbound, outbound = queue.Queue(), queue.Queue()
        for frame in [*wires, Collect(), Shutdown()]:
            inbound.put(frame)
        worker_main(WorkerSpec("proc-0", 0, app, config, ("proc-0",),
                               recovering=False), inbound, outbound)
        frames = []
        while not outbound.empty():
            frames.append(outbound.get())
        assert len(reports_in(frames)) == 1
        assert sum(isinstance(f, StoreWrite) for f in frames) == 1
        (final,) = [f for f in frames if isinstance(f, FinalReport)]
        assert final.intake_batches == 1
        assert final.frames_in == len(wires) + 1       # + the Collect
        assert final.frames_out == len(frames) - 1     # all but itself
        assert (final.reports_idle, final.reports_tick,
                final.reports_quiet_edge) == (1, 0, 0)
        got = {vid: value.distance for vid, value in final.main_values
               if not math.isinf(value.distance)}
        assert got == reference(BASE_EDGES)


class TestBlockingPump:
    def test_idle_job_wakes_per_tick_not_per_poll(self):
        """An idle converged job under ``pump_for(0.5)`` is blocked
        nearly all of the time and wakes O(report ticks) times — the
        2 ms poll woke ~250 times."""
        job = live_job(report_interval=0.1)
        try:
            job.feed(edge_stream(BASE_EDGES, BURST))
            job.run_until_converged(timeout=30.0)
            before = job.metrics.snapshot()
            job.pump_for(0.5)
            after = job.metrics.snapshot()
            wakeups = (after["live.pump.wakeups"]
                       - before["live.pump.wakeups"])
            blocked = (after["live.pump.blocked_s"]
                       - before["live.pump.blocked_s"])
            # 5 ticks x 2 workers, each a StoreWrite + a report that may
            # arrive apart, plus the master's own timers.
            assert 1 <= wakeups <= 60
            assert blocked >= 0.4
            assert after["live.pump.frames"] > 0
            stats = job.worker_stats()
            assert sorted(stats) == ["proc-0", "proc-1"]
            for entry in stats.values():
                assert entry["frames_in"] >= entry["intake_batches"] > 0
                assert entry["frames_out"] > 0
                assert entry["reports_tick"] >= 3
                assert entry["blocked_s"] > 0.3
        finally:
            job.shutdown()

    @pytest.mark.parametrize("blocked_in", ["run_until_converged",
                                            "pump_for"])
    def test_worker_death_wakes_the_blocked_master(self, blocked_in):
        """SIGKILL from a side thread while the master is blocked in its
        wait: the process sentinel wakes it and the failure names the
        worker — no hang, no timeout."""
        job = live_job(report_interval=5.0)
        try:
            if blocked_in == "pump_for":
                job.feed(edge_stream(BASE_EDGES, BURST))
                job.run_until_converged(timeout=30.0)
                block = lambda: job.pump_for(30.0)  # noqa: E731
            else:
                # Nothing fed: the tracker never starts, so the call can
                # only end by timeout — or by the death below.
                job.pump_for(1.0)
                block = lambda: job.run_until_converged(  # noqa: E731
                    timeout=30.0)
            killed_at = []

            def kill():
                killed_at.append(time.monotonic())
                os.kill(job._links["proc-1"].process.pid, signal.SIGKILL)

            timer = threading.Timer(0.3, kill)
            timer.start()
            with pytest.raises(RuntimeError, match="'proc-1' died"):
                block()
            timer.join(timeout=5.0)
            assert not timer.is_alive()
            assert time.monotonic() - killed_at[0] < 1.0
        finally:
            job.shutdown()


class TestDiagnosableTimeouts:
    def test_convergence_timeout_names_every_worker(self):
        job = live_job()
        try:
            with pytest.raises(TimeoutError) as excinfo:
                job.run_until_converged(timeout=0.5)    # nothing was fed
            message = str(excinfo.value)
            assert "did not converge within" in message
            assert "master: tracker started=False" in message
            assert "ingester unacked=0" in message
            for name in ("proc-0", "proc-1"):
                (line,) = [line for line in message.splitlines()
                           if line.startswith(name + ":")]
                for part in ("alive=True", "exitcode=None",
                             "incarnation=0", "frames drained=",
                             "last report seq=", "unacked=0",
                             "buffered=0", "watermark=inf"):
                    assert part in line
        finally:
            job.shutdown()

    def test_finalize_timeout_names_the_silent_worker(self):
        job = live_job()
        try:
            job.feed(edge_stream(BASE_EDGES, BURST))
            job.run_until_converged(timeout=30.0)
            pid = job._links["proc-0"].process.pid
            os.kill(pid, signal.SIGSTOP)
            try:
                with pytest.raises(TimeoutError) as excinfo:
                    job.finalize(timeout=0.5)
            finally:
                os.kill(pid, signal.SIGCONT)
            message = str(excinfo.value)
            assert "no FinalReport from ['proc-0']" in message
            assert "proc-0: alive=True" in message
            assert "proc-1: alive=True" in message
        finally:
            job.shutdown()
