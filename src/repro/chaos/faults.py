"""Mapping schedules onto live systems.

All faults are scheduled on the virtual timeline *before* the run starts,
through the same :class:`~repro.simulator.failures.FailureInjector` the
fault-tolerance experiments use, so a chaos run is an ordinary
deterministic simulation.  Transport drop/duplication installs a single
shared :class:`~repro.core.transport.TransportChaos` plane across every
reliable endpoint; its rng is a named simulator stream, so endpoints
draw identically for identical (seed, schedule) pairs — and not at all
in fault-free (golden) runs, which never install a plane.
"""

from __future__ import annotations

from repro.core.transport import TransportChaos
from repro.chaos.schedule import ChaosSchedule, FaultSpec


def _install_chaos_plane(sim, endpoints, fault: FaultSpec) -> TransportChaos:
    plane = TransportChaos(sim.random.stream("chaos-transport"),
                           drop_rate=fault.x, dup_rate=fault.y)
    for endpoint in endpoints:
        endpoint.chaos = plane
    sim.schedule_at(fault.start, plane.enable)
    sim.schedule_at(fault.start + fault.duration, plane.disable)
    return plane


def apply_to_job(job, schedule: ChaosSchedule) -> None:
    """Arm every fault of ``schedule`` against a ``TornadoJob``."""
    injector = job.failures
    for fault in schedule.faults:
        if fault.kind == "kill":
            injector.kill_at(fault.start, fault.a,
                             recover_after=fault.duration)
        elif fault.kind == "partition":
            injector.partition_at(fault.start, fault.a, fault.b,
                                  heal_after=fault.duration)
        elif fault.kind == "delay":
            injector.delay_spike_at(fault.start, fault.x, fault.duration,
                                    src=fault.a or None,
                                    dst=fault.b or None)
        elif fault.kind == "disk_stall":
            injector.disk_stall_at(fault.start, job.disks[fault.a],
                                   fault.duration)
        elif fault.kind == "disk_slow":
            injector.disk_slowdown_at(fault.start, job.disks[fault.a],
                                      fault.x, fault.duration)
        elif fault.kind == "drop_dup":
            _install_chaos_plane(job.sim, job.endpoints(), fault)
        else:
            raise ValueError(f"unknown fault kind {fault.kind!r}")


def fault_windows(schedule: ChaosSchedule,
                  pad: float) -> list[tuple[float, float]]:
    """Merged ``[start - pad, end + pad]`` windows of every fault — the
    intervals the liveness oracle treats as excused."""
    raw = sorted((fault.start - pad, fault.start + fault.duration + pad)
                 for fault in schedule.faults)
    merged: list[tuple[float, float]] = []
    for lo, hi in raw:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged
