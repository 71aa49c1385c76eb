"""Checkpoint bookkeeping.

Tornado's checkpoints are implicit (paper §5.3): a processor flushes every
version produced in an iteration *before* reporting progress, so once the
master has seen iteration τ terminate, the store holds a complete, durable
checkpoint at τ.  The manifest records which iterations are durable per
processor so recovery knows the restart frontier.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckpointManifest:
    """Durable-iteration frontier per (loop, processor)."""

    flushed: dict[tuple[str, str], int] = field(default_factory=dict)
    terminated: dict[str, int] = field(default_factory=dict)
    #: Test-only planted mutation: skews :meth:`restart_iteration` by this
    #: many iterations.  The chaos oracles must catch any non-zero value
    #: (see the mutation smoke tests); never set it outside those tests.
    planted_restart_skew: int = 0

    def record_flush(self, loop: str, processor: str, iteration: int) -> None:
        """Processor ``processor`` has made every version of ``loop`` up to
        ``iteration`` durable."""
        key = (loop, processor)
        if iteration > self.flushed.get(key, -1):
            self.flushed[key] = iteration

    def record_terminated(self, loop: str, iteration: int) -> None:
        """The master observed iteration ``iteration`` of ``loop``
        terminate (all processors durable at ≥ iteration)."""
        if iteration > self.terminated.get(loop, -1):
            self.terminated[loop] = iteration

    def restart_iteration(self, loop: str) -> int:
        """Iteration from which a recovering loop may resume: the last
        terminated iteration, or -1 if none (restart from scratch)."""
        last = self.terminated.get(loop, -1)
        if last >= 0 and self.planted_restart_skew:
            return max(-1, last + self.planted_restart_skew)
        return last

