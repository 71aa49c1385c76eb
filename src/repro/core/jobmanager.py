"""Multi-tenant job serving: N concurrent Tornado jobs on one pool.

The :class:`JobManager` admits many :class:`~repro.core.job.TornadoJob`
tenants onto a shared :class:`ProcessorPool` and interleaves them with a
deterministic weighted-round-robin scheduler over fixed-size *dispatch
windows* of virtual time.

**Isolation by construction.**  Each tenant keeps its own simulator,
store, manifest and flight recorder — the namespaces (loop ids, store
key-spaces, trace streams) are structurally disjoint, so corruption
across tenants is impossible by layout.  What the manager shares is
*capacity*: pool slots (leased per tenant at admission, released on
completion, crash or eviction) and the scheduler's attention.  The
scheduling is digest-neutral: the DES kernel's ``run(until=t)`` advances
the clock to the boundary without recording anything, so a tenant
advanced in window slices executes the byte-identical event sequence it
would execute running alone.  That is the **isolation oracle**: for any
seed, a tenant's flight-recorder digest under the manager equals the
digest of the same :class:`TenantSpec` run solo on its own cluster
(:func:`run_solo`).

To keep driver interactions on the virtual timeline (and therefore
replayable solo), a spec's stream feeds are scheduled at tenant-clock 0
by their own timestamps and its queries are armed *inside* the
simulation via :meth:`TornadoJob.schedule_query`.

**Admission and quotas.**  Rejections raise typed
:class:`~repro.errors.AdmissionError` subclasses: duplicate tenant ids,
pool exhaustion, quota violations, ingester backpressure past
``max_pending_inputs``.  A running tenant whose store footprint exceeds
``max_store_bytes`` is garbage-collected once and then evicted; a tenant
whose window raises is marked failed.  Both paths release the tenant's
pool slots — accounting always returns to zero.

**Fair scheduling and balancing.**  Every tenant holds
``quota.weight`` spare-capacity *credit tokens*; its share of each round
is the number of tokens it owns.  The PR 4
:class:`~repro.core.migration.MigrationPlanner` is reused verbatim as
the cross-tenant load balancer with an inversion: "processors" are
tenant ids, "vertices" are credit tokens, and the observed load signal
is cumulative *idle* time (slots × clock − busy).  The planner then
moves tokens from idle-rich tenants to busy ones, adapting round-robin
weights without touching window boundaries — digest-neutral by the same
argument as slicing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable

from repro.core.config import TenantQuota, TornadoConfig
from repro.core.job import ScheduledQuery, TornadoJob
from repro.core.migration import MigrationPlanner
from repro.core.vertex import Application
from repro.errors import (DuplicateTenantError, PoolExhaustedError,
                          QueryError, QuotaExceededError)
from repro.obs import merge_named_dumps, render_tenant_digests
from repro.streams.model import StreamTuple

#: Default dispatch-window width (virtual seconds).
WINDOW = 0.25
#: Default per-window event budget — bounds a runaway tenant's share of
#: one scheduler turn without affecting its event sequence.
WINDOW_MAX_EVENTS = 250_000
#: Pump passes granted to a live-backend tenant per window.
LIVE_PASSES = 64


@dataclass(frozen=True)
class TenantSpec:
    """Everything needed to run one tenant — and to replay it solo.

    The spec is the unit of the isolation oracle: because it carries the
    app factory, config, feeds (scheduled at tenant-clock 0 by their own
    timestamps) and query instants, :func:`run_solo` can reproduce the
    exact event timeline the managed tenant saw.
    """

    tenant: str
    app_factory: Callable[[], Application]
    config: TornadoConfig | None = None
    quota: TenantQuota = TenantQuota()
    #: Stream tuples fed at submission (tenant clock 0); each arrives at
    #: its own timestamp, so the feed is part of the virtual timeline.
    feeds: tuple[StreamTuple, ...] = ()
    #: ``(virtual_time, full_activation)`` pairs of queries armed inside
    #: the simulation (sim backend only).
    query_times: tuple[tuple[float, bool], ...] = ()
    #: Virtual time the tenant runs to (sim backend).
    horizon: float = 4.0
    #: Scheduler round at which the tenant arrives (0 = immediately).
    arrival: int = 0

    def __post_init__(self) -> None:
        if not self.tenant:
            raise ValueError("tenant id must be non-empty")
        if self.horizon <= 0:
            raise ValueError("horizon must be > 0")
        if self.arrival < 0:
            raise ValueError("arrival must be >= 0")


class ProcessorPool:
    """Slot pool shared by all tenants.  Leases are atomic under a lock,
    so concurrent submissions can never over-admit: either the lease
    fits in the free list or :class:`PoolExhaustedError` is raised and
    nothing changes."""

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError(f"pool size must be >= 1: {size}")
        self.size = size
        self._lock = threading.Lock()
        self._free = list(range(size))
        self._leases: dict[str, tuple[int, ...]] = {}

    @property
    def free_slots(self) -> int:
        return len(self._free)

    def leased(self, tenant: str) -> tuple[int, ...]:
        return self._leases.get(tenant, ())

    def lease(self, tenant: str, n: int) -> tuple[int, ...]:
        """Atomically lease ``n`` slots (lowest-numbered first, so slot
        assignment is deterministic for a given admission order)."""
        if n < 1:
            raise ValueError(f"lease size must be >= 1: {n}")
        with self._lock:
            if tenant in self._leases:
                raise DuplicateTenantError(
                    f"tenant {tenant!r} already holds a lease")
            if n > len(self._free):
                raise PoolExhaustedError(
                    f"tenant {tenant!r} wants {n} slots, "
                    f"{len(self._free)}/{self.size} free")
            slots = tuple(self._free[:n])
            del self._free[:n]
            self._leases[tenant] = slots
            return slots

    def release(self, tenant: str) -> tuple[int, ...]:
        """Return a tenant's slots to the pool (idempotent)."""
        with self._lock:
            slots = self._leases.pop(tenant, ())
            if slots:
                self._free.extend(slots)
                self._free.sort()
            return slots


@dataclass
class TenantRecord:
    """Live bookkeeping for one admitted tenant."""

    spec: TenantSpec
    job: TornadoJob
    queries: list[ScheduledQuery]
    slots: tuple[int, ...]
    state: str = "running"  # running | done | failed | evicted
    #: Completed dispatch windows (integer counter: the next window's
    #: target is ``(k+1) * window`` — no float accumulation drift).
    k: int = 0
    #: Windows granted (attempted), including budget-truncated ones.
    windows: int = 0
    #: Windows cut short by the per-window event budget.
    truncated: int = 0
    #: Store-quota garbage collections performed.
    gcs: int = 0
    error: Exception | None = None

    @property
    def live(self) -> bool:
        return self.job.config.backend == "live"

    @property
    def done(self) -> bool:
        return self.state != "running"


def _build_tenant_job(spec: TenantSpec
                      ) -> tuple[TornadoJob, list[ScheduledQuery]]:
    """The one build path shared by the manager and the solo reference
    run — identical config, feed instants and query instants, which is
    what makes the two runs digest-comparable."""
    config = spec.config if spec.config is not None else TornadoConfig()
    if config.tenant != spec.tenant:
        config = replace(config, tenant=spec.tenant)
    if spec.query_times and config.backend == "live":
        raise QueryError(
            "backend='live' does not support branch-loop queries yet")
    job = TornadoJob(spec.app_factory(), config)
    job.master.set_branch_limit(spec.quota.max_branches)
    if spec.feeds:
        job.ingester.schedule_stream(
            spec.feeds, max_pending=spec.quota.max_pending_inputs)
    handles = [job.schedule_query(at, full_activation)
               for at, full_activation in spec.query_times]
    return job, handles


def run_solo(spec: TenantSpec) -> TornadoJob:
    """Reference run for the isolation oracle: the same spec alone on
    its own cluster.  Sim backend runs to the spec's horizon; live
    backend runs to convergence."""
    job, _handles = _build_tenant_job(spec)
    if job.config.backend == "live":
        job.run_until_converged()
    else:
        job.run(until=spec.horizon)
    return job


class JobManager:
    """Admits and fairly schedules N tenants on one processor pool."""

    def __init__(self, pool_size: int = 8, window: float = WINDOW,
                 window_max_events: int = WINDOW_MAX_EVENTS,
                 balance_every: int = 0,
                 live_passes: int = LIVE_PASSES) -> None:
        if window <= 0:
            raise ValueError(f"window must be > 0: {window}")
        if window_max_events < 1:
            raise ValueError("window_max_events must be >= 1")
        if balance_every < 0:
            raise ValueError("balance_every must be >= 0")
        self.pool = ProcessorPool(pool_size)
        self.window = window
        self.window_max_events = window_max_events
        self.live_passes = live_passes
        self.tenants: dict[str, TenantRecord] = {}
        self._pending: list[TenantSpec] = []
        self.round = 0
        #: Admissions retried because the pool was full at arrival.
        self.deferred_admissions = 0
        # Cross-tenant balancer: the PR 4 planner over credit tokens.
        self.balance_every = balance_every
        self._balancer = MigrationPlanner(TornadoConfig(
            rebalance_enabled=True, migration_max_batch=1))
        self._credit_owner: dict[str, str] = {}
        self.credit_moves = 0

    # ---------------------------------------------------------- admission
    def submit(self, spec: TenantSpec) -> TenantRecord | None:
        """Admit a tenant (or park it until its arrival round).  Raises
        typed :class:`~repro.errors.AdmissionError` subclasses on
        rejection; a rejected submission leaves no residue (slots,
        records, credits all untouched or rolled back)."""
        if spec.tenant in self.tenants or any(
                pending.tenant == spec.tenant for pending in self._pending):
            raise DuplicateTenantError(
                f"tenant {spec.tenant!r} already submitted")
        self._check_quota(spec)
        if spec.arrival > self.round:
            self._pending.append(spec)
            self._pending.sort(key=lambda s: (s.arrival, s.tenant))
            return None
        return self._admit(spec)

    def _check_quota(self, spec: TenantSpec) -> None:
        config = spec.config if spec.config is not None else TornadoConfig()
        if config.n_processors > spec.quota.max_processors:
            raise QuotaExceededError(
                f"tenant {spec.tenant!r} wants {config.n_processors} "
                f"processors, quota allows {spec.quota.max_processors}")

    def _admit(self, spec: TenantSpec) -> TenantRecord:
        config = spec.config if spec.config is not None else TornadoConfig()
        slots = self.pool.lease(spec.tenant, config.n_processors)
        try:
            job, handles = _build_tenant_job(spec)
        except BaseException:
            # Build or initial feed failed (e.g. BackpressureError):
            # quota accounting must return to zero.
            self.pool.release(spec.tenant)
            raise
        record = TenantRecord(spec=spec, job=job, queries=handles,
                              slots=slots)
        self.tenants[spec.tenant] = record
        for index in range(spec.quota.weight):
            self._credit_owner[f"{spec.tenant}::cr{index}"] = spec.tenant
        return record

    def _admit_pending(self) -> None:
        remaining = []
        for spec in self._pending:
            if spec.arrival > self.round:
                remaining.append(spec)
                continue
            try:
                self._admit(spec)
            except PoolExhaustedError:
                # Retry next round, once capacity frees up.
                self.deferred_admissions += 1
                remaining.append(spec)
        self._pending = remaining

    # ----------------------------------------------------------- feeding
    def feed(self, tenant: str, tuples: Iterable[StreamTuple]) -> int:
        """Feed a running tenant, subject to its backpressure quota."""
        record = self._running(tenant)
        return record.job.ingester.schedule_stream(
            list(tuples),
            max_pending=record.spec.quota.max_pending_inputs)

    def _running(self, tenant: str) -> TenantRecord:
        record = self.tenants.get(tenant)
        if record is None:
            raise QueryError(f"unknown tenant {tenant!r}")
        if record.state != "running":
            raise QueryError(
                f"tenant {tenant!r} is {record.state}, not running")
        return record

    # -------------------------------------------------------- scheduling
    def _effective_weight(self, tenant: str) -> int:
        owned = sum(1 for owner in self._credit_owner.values()
                    if owner == tenant)
        return max(1, owned)

    def round_robin_once(self) -> bool:
        """One weighted-round-robin pass over all running tenants, in
        sorted tenant order; each tenant gets one dispatch window per
        credit token it owns.  Returns whether any tenant is still
        running (or pending admission)."""
        self._admit_pending()
        for tenant in sorted(self.tenants):
            record = self.tenants[tenant]
            if record.state != "running":
                continue
            for _ in range(self._effective_weight(tenant)):
                if record.state != "running":
                    break
                self._grant_window(record)
        self.round += 1
        if self.balance_every and self.round % self.balance_every == 0:
            self._balance()
        return bool(self._pending) or any(
            record.state == "running"
            for record in self.tenants.values())

    def run_until_all_done(self, max_rounds: int = 100_000) -> int:
        """Drive rounds until every tenant finished; returns the number
        of rounds run.  Raises ``RuntimeError`` with per-tenant stall
        diagnostics if ``max_rounds`` is exhausted first."""
        started = self.round
        while self.round_robin_once():
            if self.round - started >= max_rounds:
                stuck = {
                    tenant: {
                        "clock": record.job.sim.now,
                        "horizon": record.spec.horizon,
                        "windows": record.windows,
                        "truncated": record.truncated,
                    }
                    for tenant, record in self.tenants.items()
                    if record.state == "running"}
                raise RuntimeError(
                    f"tenants still running after {max_rounds} rounds: "
                    f"{stuck}")
        return self.round - started

    def _grant_window(self, record: TenantRecord) -> None:
        record.windows += 1
        try:
            if record.live:
                self._grant_live_window(record)
            else:
                self._grant_sim_window(record)
        except Exception as exc:  # fault isolation: contain, don't spread
            self._fail(record, exc)

    def _grant_sim_window(self, record: TenantRecord) -> None:
        sim = record.job.sim
        target = min((record.k + 1) * self.window, record.spec.horizon)
        sim.run(until=target, max_events=self.window_max_events)
        if sim.now < target and sim.pending_events:
            # Event budget cut the window short: resume toward the SAME
            # target next turn (k unchanged) so boundaries stay put.
            record.truncated += 1
            return
        record.k += 1
        self._check_store_quota(record)
        if record.state == "running" and target >= record.spec.horizon:
            self._finish(record)

    def _grant_live_window(self, record: TenantRecord) -> None:
        # ``LiveJob.quiescent()`` is exact (channel counts, no timed
        # confirmations): the first slice that reads it true is the end.
        record.job.pump_slice(passes=self.live_passes)
        if record.job.quiescent():
            self._finish(record)

    # ------------------------------------------------------------ quotas
    def _check_store_quota(self, record: TenantRecord) -> None:
        limit = record.spec.quota.max_store_bytes
        if record.job.store.approx_bytes() <= limit:
            return
        record.job.gc()
        record.gcs += 1
        footprint = record.job.store.approx_bytes()
        if footprint > limit:
            record.state = "evicted"
            record.error = QuotaExceededError(
                f"tenant {record.spec.tenant!r} store footprint "
                f"~{footprint}B exceeds quota {limit}B after GC")
            self._release(record)

    # --------------------------------------------------------- lifecycle
    def _finish(self, record: TenantRecord) -> None:
        record.state = "done"
        self._release(record)

    def _fail(self, record: TenantRecord, exc: Exception) -> None:
        record.state = "failed"
        record.error = exc
        self._release(record)

    def _release(self, record: TenantRecord) -> None:
        tenant = record.spec.tenant
        self.pool.release(tenant)
        for token in [token for token, owner in self._credit_owner.items()
                      if owner == tenant]:
            del self._credit_owner[token]
        self._balancer.forget(tenant)

    def shutdown(self) -> None:
        """Tear down live-backend tenants' worker processes (no-op for
        sim tenants).  Idempotent."""
        for record in self.tenants.values():
            if record.live:
                record.job.shutdown()

    def __enter__(self) -> "JobManager":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    # --------------------------------------------------------- balancing
    def _balance(self) -> None:
        """Feed per-tenant *idle* time into the PR 4 planner and move
        credit tokens from idle-rich tenants to busy ones.  Only
        sim-backend tenants participate (their virtual clocks are
        commensurable); window boundaries are untouched, so this is
        digest-neutral."""
        running = sorted(
            tenant for tenant, record in self.tenants.items()
            if record.state == "running" and not record.live)
        if len(running) < 2:
            return
        now = self.round * self.window
        for tenant in running:
            record = self.tenants[tenant]
            idle = (len(record.slots) * record.job.sim.now
                    - record.job.master.total_busy_time())
            tokens = tuple(
                (token, 1)
                for token in sorted(self._credit_owner)
                if self._credit_owner[token] == tenant)
            self._balancer.observe(tenant, idle, now, tokens)
        moves = self._balancer.plan(
            running, lambda token: self._credit_owner[token])
        for token, _source, target in moves:
            self._credit_owner[token] = target
            self.credit_moves += 1

    # ------------------------------------------------------ observability
    def states(self) -> dict[str, str]:
        return {tenant: record.state
                for tenant, record in sorted(self.tenants.items())}

    def unresolved_queries(self, tenant: str) -> list[ScheduledQuery]:
        record = self.tenants[tenant]
        job = record.job
        return [handle for handle in record.queries
                if handle.query_id is None
                or not (job.ingester.query_done(handle.query_id)
                        or job.query_rejected(handle.query_id))]

    def _traces(self) -> dict[str, Any]:
        # Live-backend jobs have no flight recorder (their oracle is
        # final-state equality); only sim tenants carry a trace.
        return {tenant: record.job.trace
                for tenant, record in sorted(self.tenants.items())
                if not record.live}

    def digests(self) -> dict[str, str]:
        """Per-tenant flight-recorder digests (sim tenants) — each
        comparable 1:1 with :func:`run_solo` of the same spec."""
        return {tenant: trace.digest()
                for tenant, trace in self._traces().items()}

    def merged_dump(self) -> str:
        """Combined tenant-prefixed trace dump (see
        :func:`repro.obs.merge_named_dumps`)."""
        return merge_named_dumps(self._traces())

    def render_digests(self) -> str:
        return render_tenant_digests(self._traces())

    def final_values(self, tenant: str) -> dict[Any, Any]:
        return self.tenants[tenant].job.main_values()
