"""Tornado's core: the paper's contribution.

* Main-loop / branch-loop execution model (§3): :class:`TornadoJob`,
  :class:`Master`, :class:`Ingester`.
* Bounded asynchronous iteration with the three-phase update protocol (§4):
  :class:`VertexProtocol`, :class:`ProgressTracker`, :class:`LamportClock`.
* Graph-parallel programming model (Appendix B): :class:`VertexProgram`,
  :class:`VertexContext`, :class:`Application`.
"""

from repro.core.config import TornadoConfig
from repro.core.dsl import (Algebra, AlgebraicProgram, min_label,
                            reachability, shortest_paths, widest_path)
from repro.core.ingester import Ingester
from repro.core.job import QueryResult, ScheduledQuery, TornadoJob
from repro.core.lamport import LamportClock, Timestamp
from repro.core.master import BranchRecord, Master, MasterDurableState
from repro.core.messages import MAIN_LOOP, branch_name
from repro.core.partition import PartitionScheme
from repro.core.processor import LoopState, Processor
from repro.core.progress import ProgressTracker
from repro.core.protocol import (CommitUpdate, SendAck, SendPrepare,
                                 VertexProtocol)
from repro.core.transport import ReliableEndpoint
from repro.core.vertex import (Application, Delta, InputRouter,
                               VertexContext, VertexProgram, VertexState)

__all__ = [
    "Algebra",
    "AlgebraicProgram",
    "Application",
    "min_label",
    "reachability",
    "shortest_paths",
    "widest_path",
    "BranchRecord",
    "CommitUpdate",
    "Delta",
    "Ingester",
    "InputRouter",
    "LamportClock",
    "LoopState",
    "MAIN_LOOP",
    "Master",
    "MasterDurableState",
    "PartitionScheme",
    "Processor",
    "ProgressTracker",
    "QueryResult",
    "ScheduledQuery",
    "ReliableEndpoint",
    "SendAck",
    "SendPrepare",
    "Timestamp",
    "TornadoConfig",
    "TornadoJob",
    "VertexContext",
    "VertexProgram",
    "VertexProtocol",
    "VertexState",
    "branch_name",
]
