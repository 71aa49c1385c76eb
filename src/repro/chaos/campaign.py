"""The chaos campaign runner.

A campaign draws N seeded :class:`ChaosSchedule`\\ s per workload, runs
each against a fig8-style Tornado job (SSSP, PageRank, and SSSP under
planted hot-key skew with live migration), and judges every run
with the :mod:`repro.chaos.oracles`.  The first schedule of each
workload is executed twice and its flight-recorder digests compared
byte-for-byte — the determinism oracle.  A failing schedule is greedily
shrunk to a minimal reproduction (drop one fault at a time while the
failure persists) and dumped, along with the failing run's trace, to
the output directory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from repro.algorithms.graph_common import EdgeStreamRouter
from repro.algorithms.pagerank import (PageRankProgram, reference_pagerank)
from repro.algorithms.sssp import SSSPProgram, reference_sssp
from repro.chaos import oracles
from repro.chaos.faults import apply_to_job, fault_windows
from repro.chaos.schedule import (ChaosSchedule, FaultMenu, FaultSpec,
                                  generate_schedule)
from repro.core import Application, TornadoConfig, TornadoJob
from repro.core.messages import MAIN_LOOP
from repro.errors import QueryError, SimulationError
from repro.streams import UniformRate, edge_stream

#: Virtual seconds during which faults may be active; every schedule is
#: fully healed by 80% of this.
HORIZON = 4.0
#: Mid-chaos query instant (liveness under fire).
T_MID = 1.5
#: Probe sampling step while the chaos unfolds.
SLICE = 0.25
#: Padding around fault windows excused by the liveness oracle, and the
#: largest allowed gap between terminations outside those windows.
LIVENESS_PAD = 1.5
LIVENESS_GAP = 1.5


def ring_chord_graph(n: int = 18) -> list[tuple[str, str]]:
    """A deterministic ring-plus-chords digraph: small enough for fast
    runs, meshy enough that every processor owns live vertices."""
    edges = [(f"v{i}", f"v{(i + 1) % n}") for i in range(n)]
    edges += [(f"v{i}", f"v{(i * 7 + 3) % n}") for i in range(0, n, 2)]
    return edges


@dataclass
class ChaosOutcome:
    """One judged chaos run."""

    workload: str
    schedule: ChaosSchedule
    oracles: list[oracles.OracleResult]
    digest: str
    trace_dump: str | None = None

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.oracles)

    def failures(self) -> list[oracles.OracleResult]:
        return [result for result in self.oracles if not result.passed]


# ===================================================== tornado workloads
class TornadoWorkload:
    """SSSP / PageRank on the Tornado core, fig8 configuration: batch
    main loop, never-merge branches, full-activation queries."""

    def __init__(self, name: str, job_seed: int = 7,
                 planted_restart_skew: int = 0) -> None:
        self.name = name
        self.job_seed = job_seed
        self.planted_restart_skew = planted_restart_skew
        self.edges = ring_chord_graph()
        self._golden: dict | None = None

    # ------------------------------------------------------ per-workload
    def application(self) -> Application:
        raise NotImplementedError

    def reference(self) -> dict:
        raise NotImplementedError

    def extract(self, values: dict) -> dict:
        raise NotImplementedError

    #: 0.0 = byte-exact; PageRank overrides with its tolerance band.
    golden_atol = 0.0
    reference_atol = 0.0
    storage_backend = "disk"
    #: Turn the live migrator on.  With :attr:`plant_hot_spot`, every
    #: vertex starts on proc-0 so each run migrates for real while the
    #: faults land.
    rebalance: bool = False
    plant_hot_spot = False

    # ------------------------------------------------------------ build
    def build(self) -> TornadoJob:
        balancing = {}
        if self.rebalance:
            balancing = dict(rebalance_enabled=True, rebalance_factor=1.5,
                             rebalance_min_gap=0.005,
                             rebalance_cooldown=0.1)
        config = TornadoConfig(
            seed=self.job_seed,
            n_processors=3,
            report_interval=0.01,
            retransmit_timeout=0.1,
            storage_backend=self.storage_backend,
            delay_bound=65536,
            merge_policy="never",
            trace_enabled=True,
            trace_capacity=200_000,
            **balancing,
        )
        job = TornadoJob(self.application(), config)
        job.manifest.planted_restart_skew = self.planted_restart_skew
        if self.plant_hot_spot:
            vertices = sorted({v for edge in self.edges for v in edge})
            job.partition.reassign_batch(
                [(vertex, "proc-0") for vertex in vertices])
        job.feed(edge_stream(self.edges, UniformRate(rate=1000.0)))
        return job

    def menu(self) -> FaultMenu:
        processors = tuple(f"proc-{i}" for i in range(3))
        return FaultMenu(
            kill_targets=processors + (TornadoJob.MASTER,),
            link_endpoints=processors + (TornadoJob.MASTER,),
            disks=processors if self.storage_backend == "disk" else (),
        )

    # ------------------------------------------------------------- runs
    def golden(self) -> dict:
        """Fault-free reference values for this job+seed (cached)."""
        if self._golden is None:
            outcome = self._execute(ChaosSchedule(seed=0, faults=[]))
            final = outcome["final"]
            if final is None:
                raise SimulationError(
                    f"golden run of {self.name} did not complete")
            self._golden = final
        return self._golden

    def run_chaos(self, schedule: ChaosSchedule) -> ChaosOutcome:
        run = self._execute(schedule)
        golden = self.golden()
        results = [run["probe"].check(),
                   oracles.manifest_consistency(run["manifest"],
                                                run["termination_times"]),
                   oracles.liveness(
                       run["termination_times"].get(MAIN_LOOP, []),
                       fault_windows(schedule, pad=LIVENESS_PAD),
                       completed=run["final"] is not None,
                       gap_bound=LIVENESS_GAP)]
        if run["final"] is not None:
            results.append(oracles.exactness(
                "exactness-vs-golden", run["final"], golden,
                atol=self.golden_atol))
            results.append(oracles.exactness(
                "exactness-vs-reference", run["final"], self.reference(),
                atol=self.reference_atol))
        if run["mid"] is not None:
            results.append(oracles.exactness(
                "mid-chaos-exactness", run["mid"], self.reference(),
                atol=self.reference_atol))
        outcome = ChaosOutcome(self.name, schedule, results, run["digest"])
        if not outcome.passed:
            outcome.trace_dump = run["trace_dump"]
        return outcome

    def _execute(self, schedule: ChaosSchedule) -> dict:
        job = self.build()
        apply_to_job(job, schedule)
        probe = oracles.FrontierProbe(job.manifest, MAIN_LOOP)
        mid_query = None
        while job.sim.now < HORIZON:
            job.run(until=min(job.sim.now + SLICE, HORIZON))
            probe.sample(job.sim.now)
            if mid_query is None and job.sim.now >= T_MID:
                mid_query = job.query(full_activation=True)
        mid = final = None
        try:
            if mid_query is not None:
                result = job.wait_for_query(mid_query, max_events=2_000_000)
                mid = self.extract(result.values)
        except (QueryError, SimulationError):
            pass  # a wedged mid-run query still lets the final one judge
        try:
            job.run_for(0.5)
            result = job.wait_for_query(
                job.query(full_activation=True), max_events=2_000_000)
            final = self.extract(result.values)
        except (QueryError, SimulationError):
            pass  # liveness oracle reports the incomplete run
        return {
            "probe": probe,
            "manifest": job.manifest,
            "termination_times": job.master.termination_times,
            "mid": mid,
            "final": final,
            "digest": job.trace.digest(),
            "trace_dump": job.trace.dump(),
        }


class SSSPWorkload(TornadoWorkload):
    def __init__(self, **kwargs) -> None:
        super().__init__("sssp", **kwargs)
        self.source = "v0"

    def application(self) -> Application:
        return Application(SSSPProgram(self.source), EdgeStreamRouter(),
                           name="sssp")

    def reference(self) -> dict:
        return {v: d for v, d in
                reference_sssp(self.edges, self.source).items()
                if not math.isinf(d)}

    def extract(self, values: dict) -> dict:
        out = {}
        for vertex, value in values.items():
            distance = getattr(value, "distance", value)
            if not math.isinf(distance):
                out[vertex] = distance
        return out


class MigrationWorkload(SSSPWorkload):
    """SSSP with a planted hot spot and the live migrator on: every
    schedule interleaves its faults with in-flight vertex handoffs, so
    the exact-recovery oracles also judge the migration protocol
    (epoch fencing, buffered-gather replay, crash re-drives)."""

    rebalance = True
    plant_hot_spot = True

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.name = "migration"


def master_kill_mid_migration_outcome(
        planted_restart_skew: int = 0) -> ChaosOutcome:
    """The deterministic regression schedule for the durable migration
    record: probe a fault-free :class:`MigrationWorkload` run for the
    instant a migration is cut (virtual time is replayable, so the probe
    is exact), then kill the master at precisely that moment — moves in
    flight, no adoption confirmed — and judge the run with the usual
    oracles."""
    workload = MigrationWorkload(planted_restart_skew=planted_restart_skew)
    probe = workload.build()
    probe.run_until(lambda: probe.durable.migration is not None,
                    max_events=2_000_000)
    kill_at = probe.sim.now
    schedule = ChaosSchedule(seed=0, faults=[
        FaultSpec(kind="kill", start=kill_at, duration=0.2,
                  a=TornadoJob.MASTER)])
    return workload.run_chaos(schedule)


class PageRankWorkload(TornadoWorkload):
    golden_atol = 0.01
    reference_atol = 0.02
    storage_backend = "memory"

    def __init__(self, **kwargs) -> None:
        super().__init__("pagerank", **kwargs)

    def application(self) -> Application:
        return Application(PageRankProgram(tolerance=1e-4),
                           EdgeStreamRouter(), name="pagerank")

    def reference(self) -> dict:
        return reference_pagerank(self.edges)

    def extract(self, values: dict) -> dict:
        return {vertex: getattr(value, "rank", value)
                for vertex, value in values.items()}


# ============================================================= campaign
@dataclass
class CampaignReport:
    outcomes: list[ChaosOutcome] = field(default_factory=list)
    shrunk: dict[tuple[str, int], ChaosSchedule] = field(
        default_factory=dict)
    determinism: dict[str, bool] = field(default_factory=dict)

    @property
    def failed(self) -> list[ChaosOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.passed]

    @property
    def passed(self) -> bool:
        return (not self.failed
                and all(self.determinism.values()))

    def kind_coverage(self) -> dict[str, int]:
        tally: dict[str, int] = {}
        for outcome in self.outcomes:
            for kind in sorted(outcome.schedule.kinds()):
                tally[kind] = tally.get(kind, 0) + 1
        return dict(sorted(tally.items()))


def default_workloads(planted_restart_skew: int = 0) -> list:
    return [
        SSSPWorkload(planted_restart_skew=planted_restart_skew),
        PageRankWorkload(planted_restart_skew=planted_restart_skew),
        MigrationWorkload(planted_restart_skew=planted_restart_skew),
    ]


def shrink(workload, schedule: ChaosSchedule,
           max_runs: int = 24) -> ChaosSchedule:
    """Greedy 1-minimal shrink: drop any single fault whose removal
    still reproduces the failure, until none does (or the budget runs
    out)."""
    current = schedule
    runs = 0
    improved = True
    while improved and len(current.faults) > 1 and runs < max_runs:
        improved = False
        for index in range(len(current.faults)):
            candidate = current.without(index)
            runs += 1
            if not workload.run_chaos(candidate).passed:
                current = candidate
                improved = True
                break
            if runs >= max_runs:
                break
    return current


def run_campaign(workloads, schedules_per_workload: int, base_seed: int,
                 out_dir: str | None = None,
                 log=print, shrink_failures: bool = True,
                 max_faults: int = 4) -> CampaignReport:
    report = CampaignReport()
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
    for windex, workload in enumerate(workloads):
        menu = workload.menu()
        kinds = menu.kinds()
        for i in range(schedules_per_workload):
            seed = base_seed * 10_000 + windex * 1_000 + i
            schedule = generate_schedule(
                seed, menu, HORIZON, max_faults=max_faults,
                force_kind=kinds[i % len(kinds)])
            outcome = workload.run_chaos(schedule)
            report.outcomes.append(outcome)
            status = "ok" if outcome.passed else "FAIL"
            log(f"[{workload.name}] seed={seed} "
                f"faults={len(schedule.faults)} "
                f"kinds={','.join(sorted(schedule.kinds()))} {status}")
            if i == 0:
                # Determinism oracle: same seed, byte-identical trace.
                repeat = workload.run_chaos(schedule)
                same = repeat.digest == outcome.digest
                report.determinism[workload.name] = same
                log(f"[{workload.name}] determinism "
                    f"{'ok' if same else 'FAIL'} "
                    f"digest={outcome.digest[:16]}")
            if not outcome.passed:
                for result in outcome.failures():
                    log(f"    {result.line()}")
                minimal = schedule
                if shrink_failures:
                    minimal = shrink(workload, schedule)
                    report.shrunk[(workload.name, seed)] = minimal
                    log(f"    shrunk to {len(minimal.faults)} fault(s)")
                if out_path is not None:
                    stem = f"{workload.name}-seed{seed}"
                    text = (minimal.dump() + "\n"
                            + "\n".join(r.line()
                                        for r in outcome.oracles) + "\n")
                    (out_path / f"{stem}.schedule").write_text(text)
                    if outcome.trace_dump:
                        (out_path / f"{stem}.trace").write_text(
                            outcome.trace_dump)
    return report
