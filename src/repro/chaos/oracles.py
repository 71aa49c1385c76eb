"""Exact-recovery oracles.

Each oracle inspects one completed chaos run and returns an
:class:`OracleResult`.  The properties checked:

* **Exactness** — the post-heal query equals a fault-free golden run of
  the same job and seed (and the analytic reference), byte-exact for
  SSSP and within the program tolerance for PageRank.
* **Frontier monotonicity** — the manifest's restart iteration, sampled
  while the chaos unfolds, never regresses.
* **Manifest consistency** — the restart frontier equals the highest
  iteration the master actually observed terminating; this is the oracle
  with teeth against the planted restart-skew mutation, which exactness
  alone would miss (SSSP re-derives the right answer from a frontier
  that is off by one in either direction).
* **Liveness** — outside padded fault windows, consecutive main-loop
  terminations are never further apart than a generous bound, and the
  final query completes within the event budget at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class OracleResult:
    oracle: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "ok" if self.passed else "FAIL"
        suffix = f": {self.detail}" if self.detail else ""
        return f"{status:4s} {self.oracle}{suffix}"


# ------------------------------------------------------------- exactness
def exactness(name: str, got: dict, want: dict,
              atol: float = 0.0) -> OracleResult:
    """Compare two result maps, exactly (``atol=0``) or within ``atol``."""
    problems = []
    for key in sorted(set(got) | set(want), key=str):
        g, w = got.get(key), want.get(key)
        if g is None or w is None:
            problems.append(f"{key}: got={g} want={w}")
        elif atol == 0.0:
            if g != w:
                problems.append(f"{key}: got={g} want={w}")
        elif not math.isclose(g, w, abs_tol=atol, rel_tol=0.0):
            problems.append(f"{key}: got={g} want={w} (atol={atol})")
        if len(problems) >= 4:
            break
    return OracleResult(name, not problems, "; ".join(problems))


# ------------------------------------------------ frontier monotonicity
@dataclass
class FrontierProbe:
    """Samples a loop's restart iteration over virtual time."""

    manifest: object
    loop: str
    samples: list[tuple[float, int]] = field(default_factory=list)

    def sample(self, now: float) -> None:
        self.samples.append(
            (now, self.manifest.restart_iteration(self.loop)))

    def check(self) -> OracleResult:
        for (t0, i0), (t1, i1) in zip(self.samples, self.samples[1:]):
            if i1 < i0:
                return OracleResult(
                    "frontier-monotonicity", False,
                    f"{self.loop} frontier regressed {i0}->{i1} "
                    f"between t={t0:.3f} and t={t1:.3f}")
        return OracleResult("frontier-monotonicity", True,
                            f"{len(self.samples)} samples")


# ------------------------------------------------- manifest consistency
def manifest_consistency(manifest, termination_times) -> OracleResult:
    """The restart frontier of every loop must equal the highest
    iteration the master recorded terminating (both are written in the
    same code path, so any skew means checkpoint bookkeeping is lying)."""
    for loop, times in sorted(termination_times.items()):
        if not times:
            continue
        observed = max(iteration for iteration, _time in times)
        restart = manifest.restart_iteration(loop)
        if restart != observed:
            return OracleResult(
                "manifest-consistency", False,
                f"loop {loop}: restart_iteration={restart} but master "
                f"observed termination up to {observed}")
    return OracleResult("manifest-consistency", True,
                        f"{len(termination_times)} loops")


# --------------------------------------------------------------- liveness
def liveness(termination_times, windows, completed: bool,
             gap_bound: float) -> OracleResult:
    """Bounded time between terminated iterations while no fault is in
    flight; ``windows`` are the padded fault intervals to excuse."""
    if not completed:
        return OracleResult("liveness", False,
                            "final query did not complete")

    def excused(t0: float, t1: float) -> bool:
        return any(t0 <= hi and t1 >= lo for lo, hi in windows)

    times = sorted(time for _iteration, time in termination_times)
    worst = 0.0
    for t0, t1 in zip(times, times[1:]):
        if excused(t0, t1):
            continue
        worst = max(worst, t1 - t0)
        if t1 - t0 > gap_bound:
            return OracleResult(
                "liveness", False,
                f"{t1 - t0:.3f}s between terminations at t={t0:.3f} and "
                f"t={t1:.3f} with no fault in flight (bound "
                f"{gap_bound:.3f}s)")
    return OracleResult("liveness", True,
                        f"worst fault-free gap {worst:.3f}s")
