"""The live multiprocessing execution backend.

``repro.live`` runs the exact same Tornado runtime — ``Processor``,
``Master``, ``Ingester``, ``ReliableEndpoint``, the three-phase update
protocol — on real OS processes instead of the discrete-event simulator.
Select it with ``TornadoConfig(backend="live")``; the same
``repro.core.job`` program runs unmodified on either backend.

Architecture (see DESIGN.md §3h):

* the master process owns the job graph, the authoritative
  :class:`~repro.storage.VersionedStore` and the checkpoint manifest, and
  runs a ``split_managed``-style pump loop: it hands out control (inputs,
  termination notices, recovery) and collects ProgressReports and
  checkpoint writes — data does not cross it;
* each processor runs in its own spawned process on a
  :class:`~repro.live.kernel.LiveKernel` — a Simulator facade whose clock
  is a Lamport counter and whose timers fire on wall time;
* all cross-process traffic is the frozen-dataclass protocol vocabulary
  of ``core/messages.py``, wrapped in :class:`~repro.live.wire.Wire`
  envelopes; workers exchange it on direct per-pair multiprocessing
  queues (single producer, single consumer, so per-link FIFO), and only
  a respawned worker's traffic is relayed through the master;
* convergence is decided by counting: both ends of every channel count
  their payload frames, every progress report carries its worker's
  counts, and the run has converged when every report is passive and
  every channel's counts agree — no timed confirmations;
* correctness is gated by :mod:`repro.live.oracle`: the live run's final
  vertex state and protocol-phase counts must match the DES run with the
  same seed.
"""

from repro.live.job import LiveJob
from repro.live.kernel import LiveKernel
from repro.live.oracle import canonical_digest, cross_check, job_fingerprint
from repro.live.store import LiveBackend, WorkerStore
from repro.live.transport import LiveTransport, MasterNet, WorkerNet
from repro.live.wire import (Collect, FetchStore, FinalReport, PeerDown,
                             Shutdown, StoreLoad, StoreWrite, Wire,
                             WorkerError)

__all__ = [
    "LiveJob",
    "LiveKernel",
    "LiveBackend",
    "LiveTransport",
    "MasterNet",
    "WorkerNet",
    "WorkerStore",
    "Wire",
    "StoreWrite",
    "StoreLoad",
    "PeerDown",
    "FetchStore",
    "Collect",
    "FinalReport",
    "Shutdown",
    "WorkerError",
    "canonical_digest",
    "cross_check",
    "job_fingerprint",
]
