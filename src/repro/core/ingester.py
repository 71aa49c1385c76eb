"""The ingester (paper §5.1-5.2).

Collects inputs from external sources, routes them to the processors that
own the affected vertices, and receives user queries, forwarding them to
the master.  Results of finished queries are held here for the driver.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.core.config import TornadoConfig
from repro.errors import BackpressureError
from repro.core.messages import (MAIN_LOOP, BranchDone, PeerRecovered,
                                 QueryRejected, QueryRequest, VertexInput)
from repro.core.partition import PartitionScheme
from repro.core.transport import ReliableEndpoint
from repro.core.vertex import Application
from repro.simulator import Actor, Network, Simulator
from repro.streams.model import StreamTuple


class Ingester(Actor):
    """Feeds the topology and fields user queries."""

    def __init__(self, sim: Simulator, name: str, config: TornadoConfig,
                 app: Application, partition: PartitionScheme,
                 network: Network, master_name: str) -> None:
        super().__init__(sim, name)
        self.config = config
        self.app = app
        self.partition = partition
        self.network = network
        self.master_name = master_name
        self.transport = ReliableEndpoint(
            sim, network, name, timeout=config.retransmit_timeout)
        self._next_query = 0
        self.results: dict[int, BranchDone] = {}
        self.result_times: dict[int, float] = {}
        self.tuples_ingested = 0
        self.tuples_scheduled = 0
        self.inputs_routed = 0
        self.inputs_replayed = 0
        self.rejections: dict[int, QueryRejected] = {}
        # Every routed input, in order.  A processor crash rolls its
        # vertices back to the last checkpoint; inputs it acknowledged
        # after that checkpoint died with it and the transport will not
        # resend them, so the ingester replays its journal for the
        # recovered processor (gathers of stream inputs are idempotent:
        # they set edges/weights rather than accumulate).  A deployment
        # would truncate the journal at the durable input frontier; the
        # simulation keeps it whole.
        self._journal: list[VertexInput] = []

    # -------------------------------------------------------------- feeding
    def pending_inputs(self) -> int:
        """Stream tuples scheduled for delivery but not yet ingested (what
        :meth:`schedule_stream`'s ``max_pending`` bound checks)."""
        return self.tuples_scheduled - self.tuples_ingested

    def schedule_stream(self, tuples: Iterable[StreamTuple],
                        max_pending: int | None = None) -> int:
        """Arrange for each tuple to arrive at its timestamp; returns the
        number of tuples scheduled.

        With ``max_pending`` set, the whole batch is rejected with
        :class:`~repro.errors.BackpressureError` — before scheduling
        anything — if accepting it would push :meth:`pending_inputs` past
        the bound.  All-or-nothing keeps the virtual timeline of an
        admitted feed independent of the rejection history.
        """
        batch = list(tuples)
        if max_pending is not None \
                and self.pending_inputs() + len(batch) > max_pending:
            raise BackpressureError(
                f"{self.name}: {self.pending_inputs()} pending + "
                f"{len(batch)} offered > max_pending={max_pending}")
        count = 0
        for tup in batch:
            at = max(self.sim.now, tup.timestamp)
            self.sim.schedule_at(at, self.deliver, ("ingest", tup),
                                 self.name)
            count += 1
        self.tuples_scheduled += count
        return count

    # -------------------------------------------------------------- queries
    def issue_query(self, full_activation: bool = False) -> int:
        """Ask for the results at the current instant; returns a query id
        the driver can poll."""
        self._next_query += 1
        query_id = self._next_query
        self.transport.send(self.master_name, QueryRequest(
            query_id=query_id,
            issued_at=self.sim.now,
            full_activation=full_activation,
        ))
        return query_id

    def query_done(self, query_id: int) -> bool:
        return query_id in self.results

    # ------------------------------------------------------------- dispatch
    def handle(self, message: Any, sender: str) -> float:
        transport = self.transport
        try:
            payload = transport.on_message(message, sender)
            if isinstance(payload, BranchDone):
                self.results[payload.query_id] = payload
                self.result_times[payload.query_id] = self.sim.now
            elif isinstance(payload, QueryRejected):
                self.rejections[payload.query_id] = payload
            elif isinstance(payload, PeerRecovered):
                return self._replay_inputs(payload.processor)
            elif isinstance(payload, tuple) and payload[0] == "ingest":
                return self._ingest(payload[1])
            return self.config.control_cost
        finally:
            transport.flush_acks()

    def _ingest(self, tup: StreamTuple) -> float:
        self.tuples_ingested += 1
        routed = 0
        for vertex_id, delta in self.app.router.route(tup):
            inp = VertexInput(
                loop=MAIN_LOOP,
                vertex=vertex_id,
                kind=delta.kind,
                payload=delta.payload,
                weight=delta.weight,
            )
            self._journal.append(inp)
            self.transport.send(self.partition.owner(vertex_id), inp)
            routed += 1
        self.inputs_routed += routed
        return self.config.control_cost * (1 + routed)

    def _replay_inputs(self, processor: str) -> float:
        """Re-send every journaled input the recovered processor owns."""
        replayed = 0
        for inp in self._journal:
            if self.partition.owner(inp.vertex) != processor:
                continue
            self.transport.send(processor, inp)
            replayed += 1
        self.inputs_replayed += replayed
        return self.config.control_cost * (1 + replayed)
