"""Satellite bugfix audit: every protocol message must survive pickling.

The live backend ships the frozen-dataclass vocabulary of
``core/messages.py`` (plus the ``live/wire.py`` control frames) across
OS process boundaries, so *every* message class — and every payload a
message can smuggle (vertex values, session batches, nested envelopes,
stream tuples) — must pickle and unpickle back to an equal object.

The suite is self-auditing: it introspects both modules for dataclasses
and fails if a class has no exemplar below, so adding a message without
extending the vocabulary here is a test failure, not a silent gap in
live coverage.
"""

import dataclasses
import inspect
import pickle

import pytest

from repro.algorithms.graph_common import EdgeStreamRouter
from repro.algorithms.pagerank import PageRankValue
from repro.algorithms.sssp import SSSPProgram, SSSPValue
from repro.core import Application, TornadoConfig
from repro.core import messages as messages_mod
from repro.core.lamport import Timestamp
from repro.core.messages import (Acknowledge, BranchDone, ColumnBatch,
                                 Envelope, ForkBranch, IterationTerminated,
                                 MergeBranch, MigrateDone, MigrateState,
                                 PeerRecovered, Prepare, ProcessorRecovered,
                                 ProgressReport, QueryRejected, QueryRequest,
                                 RecoverLoops, ReleasedUpdate, Repartition,
                                 StopLoop, TransportAck, VertexInput,
                                 VertexUpdate)
from repro.live import wire as wire_mod
from repro.live.wire import (Collect, FetchStore, FinalReport, PeerDown,
                             Shutdown, StoreLoad, StoreWrite, Wire,
                             WorkerError, WorkerSpec)
from repro.streams.model import ADD_EDGE, StreamTuple

UPDATE = VertexUpdate("main", "u", "v", 4,
                      SSSPValue(2.0, {"s": 2.0}, {"v": 1.0}, {"w"}))
PREPARE = Prepare("main", "u", "v", Timestamp(17, "proc-1"))
ACK = Acknowledge("main", "v", "u", 4)
#: A worker's channel counts: payload frames sent per channel out,
#: received per channel in.
CHANNELS = ((("proc-1", 412),), (("master", 37), ("proc-1", 398)))

#: One realistic exemplar per message class (order matches the modules).
VOCABULARY = [
    VertexInput("main", "u", ADD_EDGE, ("u", "v", 1.5), weight=1),
    UPDATE,
    # Session frame: a column run (4 parallel tuples), a scalar control
    # message at its original position, then a second run whose values
    # are program objects — the full segment grammar.
    ColumnBatch("main", ((("u", "w"), ("v", "x"), (4, 4), (2.5, 3.5)),
                         PREPARE,
                         (("u",), ("y",), (5,), (UPDATE.data,)),
                         ACK)),
    ReleasedUpdate(UPDATE),
    PREPARE,
    ACK,
    ProgressReport("main", "proc-0", 3,
                   {0: (1, 2, 2), 1: (4, 5, 5)}, float("inf"),
                   inputs_gathered=7, busy_time=0.25,
                   unacked=0, buffered=0,
                   vertex_load=(("u", 3.0),), channels=CHANNELS),
    IterationTerminated("main", 5),
    ForkBranch("branch-1", 6, 2, full_activation=True),
    StopLoop("branch-1"),
    MergeBranch("branch-1", 8),
    QueryRequest(1, 0.5, full_activation=False),
    QueryRejected(2, 0.6, "admission: too many branches"),
    BranchDone("branch-1", 1, 9, 0.5),
    Repartition(2, (("u", "proc-0", "proc-1"),)),
    MigrateState(2, (("u", True), ("v", False))),
    MigrateDone(2, ("u", "v")),
    ProcessorRecovered("proc-1"),
    PeerRecovered("proc-1"),
    RecoverLoops((("main", 5), ("branch-1", 2))),
    Envelope(41, ColumnBatch("main", ((("u",), ("v",), (4,),
                                       (UPDATE.data,)),))),
    TransportAck(41),
]

WIRE_VOCABULARY = [
    Wire("proc-0", "proc-1", 99, Envelope(7, UPDATE)),
    StoreWrite("proc-0", 3, (("main", "u", 4, ("x", ("v",))),),
               (("main", 4),)),
    FetchStore("proc-1"),
    StoreLoad((("main", "u", 4, ("x", ("v",))),)),
    PeerDown("proc-1"),
    Collect(),
    FinalReport("proc-0", 1, (("u", SSSPValue(0.0, {}, {}, set())),),
                (("main", (3, 2, 2, 0, 5)),),
                (("protocol.commit:main", 3),), 120, 0, 0,
                frames_in=450, frames_out=61,
                channel_sent=CHANNELS[0],
                channel_received=CHANNELS[1]),
    Shutdown(),
    WorkerError("proc-2", 0, "Traceback (most recent call last): ..."),
    WorkerSpec("proc-0", 1,
               Application(SSSPProgram("s"), EdgeStreamRouter(),
                           name="sssp"),
               TornadoConfig(backend="live", n_processors=2),
               ("proc-0", "proc-1"), True),
]

SMUGGLED_PAYLOADS = [
    SSSPValue(3.0, {"a": 3.0}, {"b": 1.0}, {"c"}),
    PageRankValue(rank=0.85, contribs={"a": 0.4}, retracted={"b"}),
    StreamTuple(0.001, ADD_EDGE, ("u", "v", 1.0), weight=1),
    Timestamp(5, "proc-0"),
]


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def module_dataclasses(module):
    return {name for name, cls in inspect.getmembers(module, inspect.isclass)
            if dataclasses.is_dataclass(cls)
            and cls.__module__ == module.__name__}


class TestVocabularyCoverage:
    def test_every_message_dataclass_has_an_exemplar(self):
        covered = {type(m).__name__ for m in VOCABULARY}
        declared = module_dataclasses(messages_mod)
        assert declared <= covered, \
            f"messages without a pickle exemplar: {declared - covered}"

    def test_every_wire_dataclass_has_an_exemplar(self):
        covered = {type(m).__name__ for m in WIRE_VOCABULARY}
        declared = module_dataclasses(wire_mod)
        assert declared <= covered, \
            f"wire frames without a pickle exemplar: {declared - covered}"


class TestPickleRoundTrip:
    @pytest.mark.parametrize("message", VOCABULARY,
                             ids=lambda m: type(m).__name__)
    def test_message_roundtrips(self, message):
        assert roundtrip(message) == message

    @pytest.mark.parametrize("frame", WIRE_VOCABULARY,
                             ids=lambda m: type(m).__name__)
    def test_wire_frame_roundtrips(self, frame):
        restored = roundtrip(frame)
        if isinstance(frame, WorkerSpec):
            # Application/config carry callables; identity equality is
            # not preserved, structural fidelity is what matters.
            assert restored.name == frame.name
            assert restored.incarnation == frame.incarnation
            assert restored.worker_names == frame.worker_names
            assert restored.recovering == frame.recovering
            assert restored.config == frame.config
            assert restored.app.name == frame.app.name
            assert type(restored.app.program) is type(frame.app.program)
        else:
            assert restored == frame

    @pytest.mark.parametrize("payload", SMUGGLED_PAYLOADS,
                             ids=lambda p: type(p).__name__)
    def test_smuggled_payload_roundtrips(self, payload):
        assert roundtrip(payload) == payload

    def test_nested_envelope_batch_deep_equality(self):
        batch = Envelope(12, ColumnBatch("main", (
            (("u",), ("v",), (4,), (UPDATE.data,)), PREPARE, ACK)))
        restored = roundtrip(batch)
        assert restored.payload.segments[0][3][0] == UPDATE.data
        assert restored.payload.segments[1].update_time == \
            PREPARE.update_time
