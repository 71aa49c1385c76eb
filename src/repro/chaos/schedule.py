"""Seeded fault schedules.

A :class:`ChaosSchedule` is a deterministic function of ``(seed, menu)``:
the same seed against the same fault menu always yields byte-identical
fault lists, so a failing campaign schedule can be replayed (and shrunk)
exactly.  Faults are drawn from the :class:`FaultMenu` a workload
publishes — which actors may be killed, which links partitioned, which
disks stalled; any menu that names actors also offers message drops and
duplicates on the reliable transport — and every fault heals before
``heal_deadline`` so the post-chaos oracles observe a fully repaired
system.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

#: Every fault kind the generator knows how to draw.
KINDS = ("kill", "partition", "delay", "disk_stall", "disk_slow",
         "drop_dup")


@dataclass(frozen=True)
class FaultMenu:
    """What a workload exposes to the schedule generator."""

    #: Actors that may be crashed (and will be recovered).
    kill_targets: tuple[str, ...] = ()
    #: Actors between which partitions / link delay spikes may occur.
    link_endpoints: tuple[str, ...] = ()
    #: Disk names (keys into ``job.disks``) that may be stalled/slowed.
    disks: tuple[str, ...] = ()

    def kinds(self) -> tuple[str, ...]:
        out = []
        if self.kill_targets:
            out.append("kill")
        if len(self.link_endpoints) >= 2:
            out.extend(["partition", "delay"])
        if self.disks:
            out.extend(["disk_stall", "disk_slow"])
        # Actors talk over the reliable transport, which takes a chaos
        # plane of message drops and duplicates.
        if self.kill_targets or self.link_endpoints:
            out.append("drop_dup")
        return tuple(out)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault, in canonical (replayable) form.

    ``a``/``b`` name the targets (actor, link endpoints or disk) and
    ``x``/``y`` carry the numeric parameters of the kind (extra latency,
    slowdown factor, drop/dup rates).
    """

    kind: str
    start: float
    duration: float
    a: str = ""
    b: str = ""
    x: float = 0.0
    y: float = 0.0

    def line(self) -> str:
        """Canonical one-line rendering (stable across runs)."""
        return (f"{self.kind} start={self.start:.6f} "
                f"duration={self.duration:.6f} a={self.a} b={self.b} "
                f"x={self.x:.6f} y={self.y:.6f}")


@dataclass
class ChaosSchedule:
    """An ordered list of faults plus the seed that produced it."""

    seed: int
    faults: list[FaultSpec] = field(default_factory=list)

    def kinds(self) -> set[str]:
        return {fault.kind for fault in self.faults}

    def dump(self) -> str:
        lines = [f"schedule seed={self.seed} n={len(self.faults)}"]
        lines += [fault.line() for fault in self.faults]
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.dump().encode()).hexdigest()

    def without(self, index: int) -> "ChaosSchedule":
        """A copy with fault ``index`` removed — the shrinking step."""
        faults = [fault for i, fault in enumerate(self.faults)
                  if i != index]
        return replace(self, faults=faults)


def generate_schedule(seed: int, menu: FaultMenu, horizon: float,
                      max_faults: int = 4,
                      force_kind: str | None = None) -> ChaosSchedule:
    """Draw a schedule from ``seed``: 2..``max_faults`` faults, all
    starting in the first 60% of ``horizon`` and healed by 80% of it.

    ``force_kind`` pins the first fault's kind — the campaign uses it to
    guarantee coverage of every available kind across a run.
    """
    rng = np.random.default_rng(seed)
    kinds = menu.kinds()
    if not kinds:
        raise ValueError("fault menu offers no fault kinds")
    n_faults = int(rng.integers(2, max_faults + 1))
    faults: list[FaultSpec] = []
    killed: set[str] = set()
    used_drop_dup = False
    for index in range(n_faults):
        if index == 0 and force_kind is not None:
            kind = force_kind
        else:
            kind = str(rng.choice(kinds))
        # Singletons: one chaos-plane window, one kill per target.
        if kind == "drop_dup" and used_drop_dup:
            kind = "delay" if "delay" in kinds else kinds[0]
        start = float(rng.uniform(0.05, 0.6)) * horizon
        duration = float(rng.uniform(0.04, 0.2)) * horizon
        duration = min(duration, 0.8 * horizon - start)
        if duration <= 0:
            continue
        if kind == "kill":
            candidates = [t for t in menu.kill_targets if t not in killed]
            if not candidates:
                continue
            target = str(rng.choice(candidates))
            killed.add(target)
            faults.append(FaultSpec("kill", start, duration, a=target))
        elif kind == "partition":
            src, dst = (str(e) for e in rng.choice(
                menu.link_endpoints, size=2, replace=False))
            faults.append(FaultSpec("partition", start, duration,
                                    a=src, b=dst))
        elif kind == "delay":
            # Fabric-wide half the time, single-link otherwise.
            extra = float(rng.uniform(0.01, 0.08))
            if rng.random() < 0.5 or len(menu.link_endpoints) < 2:
                faults.append(FaultSpec("delay", start, duration, x=extra))
            else:
                src, dst = (str(e) for e in rng.choice(
                    menu.link_endpoints, size=2, replace=False))
                faults.append(FaultSpec("delay", start, duration,
                                        a=src, b=dst, x=extra))
        elif kind == "disk_stall":
            disk = str(rng.choice(menu.disks))
            faults.append(FaultSpec("disk_stall", start,
                                    min(duration, 0.4), a=disk))
        elif kind == "disk_slow":
            disk = str(rng.choice(menu.disks))
            factor = float(rng.uniform(2.0, 10.0))
            faults.append(FaultSpec("disk_slow", start, duration,
                                    a=disk, x=factor))
        elif kind == "drop_dup":
            used_drop_dup = True
            drop = float(rng.uniform(0.02, 0.15))
            dup = float(rng.uniform(0.02, 0.15))
            faults.append(FaultSpec("drop_dup", start, duration,
                                    x=drop, y=dup))
    faults.sort(key=lambda fault: (fault.start, fault.kind, fault.a))
    return ChaosSchedule(seed=seed, faults=faults)
