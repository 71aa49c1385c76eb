"""Runtime configuration for a Tornado job."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass
class TornadoConfig:
    """All knobs of a simulated Tornado deployment.

    The cost parameters are per-event virtual-time charges; their defaults
    are scaled so that the bundled experiments reproduce the *shapes* of the
    paper's figures at laptop scale.
    """

    # -------------------------------------------------------------- layout
    n_processors: int = 4
    n_nodes: int = 4
    seed: int = 0

    # ------------------------------------------------------------- backend
    #: Execution backend.  "sim" (default) runs everything on the
    #: deterministic DES kernel under virtual time.  "live" runs each
    #: processor in its own OS process (``repro.live``), exchanging the
    #: same frozen-dataclass protocol messages over multiprocessing
    #: queues; correctness is cross-checked against the DES run via the
    #: flight-recorder oracle (``repro.live.oracle``).
    backend: str = "sim"

    # ------------------------------------------------------ iteration model
    #: Delay bound B (paper §4.4).  1 = synchronous; large = asynchronous.
    delay_bound: int = 65536

    # --------------------------------------------------------------- costs
    #: Virtual seconds to gather one update/input into a vertex.
    gather_cost: float = 5e-5
    #: Virtual seconds to handle one control message (PREPARE/ACK/...).
    control_cost: float = 5e-6
    #: Virtual seconds for the master to handle one control message.
    master_cost: float = 1e-5
    #: Network latency / jitter / fabric capacity (msgs per second).
    net_latency: float = 3e-4
    net_jitter: float = 0.0
    net_capacity: float | None = None

    # -------------------------------------------------------------- storage
    #: "disk" (PostgreSQL-like, the default in the paper) or "memory"
    #: (LMDB-like, used for the Table 3 comparison).
    storage_backend: str = "disk"
    disk_seek_cost: float = 1.5e-3
    disk_record_cost: float = 2e-6

    # ------------------------------------------------------------- control
    #: How often processors report progress to the master.
    report_interval: float = 2e-2
    #: Reliable-transport retransmission timeout.
    retransmit_timeout: float = 0.5
    #: Merge converged branch results into the main loop: "if_quiescent"
    #: (paper default: only when no inputs arrived during the branch run),
    #: "always", or "never".
    merge_policy: str = "if_quiescent"
    #: Main-loop behaviour: "approximate" (paper's main loop — updates
    #: propagate continuously) or "batch" (doBatchProcessing: the main loop
    #: only accumulates inputs; branch loops do all the work).
    main_loop_mode: str = "approximate"
    # ------------------------------------------------------------ branches
    #: Admission control for branch loops (paper §5.2: a branch starts
    #: only "if there are sufficient idle processors").
    max_concurrent_branches: int = 8
    #: What to do with queries beyond the cap: "queue" them until a branch
    #: finishes, or "shed" them (reject immediately — the load-shedding
    #: direction of paper §8).
    branch_admission: str = "queue"

    # ----------------------------------------------------------- balancing
    #: Enable the master's load rebalancer (paper §5.1): when processor
    #: busy rates skew beyond ``rebalance_factor``, the live migrator
    #: (:mod:`repro.core.migration`) moves batches of the costliest
    #: vertices off the hot processors while the main loop keeps running
    #: (epoch-fenced handoff, no ingest pause).
    rebalance_enabled: bool = False
    rebalance_factor: float = 3.0
    #: Minimum absolute busy-time gap (seconds) before rebalancing.
    rebalance_min_gap: float = 0.05
    #: Minimum virtual time between two rebalances.
    rebalance_cooldown: float = 1.0
    #: Most vertices a single live-migration plan may move.
    migration_max_batch: int = 16

    # ------------------------------------------------------- observability
    #: Enable the flight recorder (repro.obs.TraceRecorder).  Off by
    #: default: hot paths then pay a single boolean check per guarded
    #: site.  The metrics registry is always on (instruments are cheap).
    trace_enabled: bool = False
    #: Ring-buffer capacity of the flight recorder (events retained).
    trace_capacity: int = 262_144
    #: Record one ``net.send`` event (src, dst, eta) per network delivery
    #: while tracing — the communication edges the critical-path
    #: extractor (:mod:`repro.obs.critical_path`) walks.  Off by default:
    #: link events are high-volume and change the trace digest, so the
    #: digest oracles keep running against the link-free vocabulary.
    trace_links: bool = False

    def __post_init__(self) -> None:
        if self.backend not in ("sim", "live"):
            raise ConfigError(f"unknown execution backend: {self.backend!r}")
        if self.n_processors < 1:
            raise ConfigError("n_processors must be >= 1")
        if self.n_nodes < 1:
            raise ConfigError("n_nodes must be >= 1")
        if self.delay_bound < 1:
            raise ConfigError("delay_bound must be >= 1")
        # Timers reschedule themselves after these intervals: zero would
        # stop virtual time, a negative delay schedules into the past.
        for name in ("report_interval", "retransmit_timeout"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be > 0")
        for name in ("gather_cost", "control_cost", "master_cost",
                     "net_latency", "net_jitter", "disk_seek_cost",
                     "disk_record_cost"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.net_capacity is not None and not self.net_capacity > 0:
            raise ConfigError("net_capacity must be > 0")
        if self.storage_backend not in ("disk", "memory"):
            raise ConfigError(f"unknown backend: {self.storage_backend!r}")
        if self.backend == "live" and self.rebalance_enabled:
            raise ConfigError(
                "backend='live' does not support the rebalancer yet")
        if self.merge_policy not in ("if_quiescent", "always", "never"):
            raise ConfigError(f"unknown merge policy: {self.merge_policy!r}")
        if self.main_loop_mode not in ("approximate", "batch"):
            raise ConfigError(f"unknown mode: {self.main_loop_mode!r}")
        if self.branch_admission not in ("queue", "shed"):
            raise ConfigError(
                f"unknown admission policy: {self.branch_admission!r}")
        if self.max_concurrent_branches < 1:
            raise ConfigError("max_concurrent_branches must be >= 1")
        # NaN and infinity pass a plain ``< 0`` check but make the
        # rebalancer's trigger comparisons false for ever: reject them
        # here, loudly.
        if not (self.rebalance_factor > 0
                and math.isfinite(self.rebalance_factor)):
            raise ConfigError("rebalance_factor must be > 0 and finite")
        for name in ("rebalance_min_gap", "rebalance_cooldown"):
            value = getattr(self, name)
            if not (value >= 0 and math.isfinite(value)):
                raise ConfigError(f"{name} must be >= 0 and finite")
        if self.migration_max_batch < 1:
            raise ConfigError("migration_max_batch must be >= 1")
        if self.trace_capacity < 1:
            raise ConfigError("trace_capacity must be >= 1")
