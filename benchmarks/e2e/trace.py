"""The layer ledger: wall-clock spans around each layer's entry points,
recorded from outside the system.

``Ledger.install`` replaces the entry points below on their classes with
timing wrappers *before* the job is built, so every instance the job
creates is covered and no file under ``src/`` has to know about the
benchmark.  Spans nest: a span's *self* time is its duration minus the
time its child spans cover, so self times partition the traced wall clock
without double counting (``Simulator.run`` contains ``Processor.handle``
contains ``ReliableEndpoint.send`` contains ``Network.send``).  Garbage
collector pauses are spans too (``gc.callbacks``), so a gen-2 pass that
happens to land inside ``VersionedStore.put`` is billed to ``runtime.gc``
and not to the store.

Spans are kept in memory as per-name running totals ``[calls, total_s,
self_s]`` — one list per span name, no per-call record: a sim pass makes
~10⁶ wrapped calls and a list of them would itself change the garbage
collector's behaviour.  The pass reads the totals once, at its end.

Only the traced pass installs a ledger; the passes that produce the
end-to-end medians run the classes untouched.
"""

from __future__ import annotations

import gc
import importlib
import time
from typing import Any, Callable

#: span name -> (module, class, methods).  Methods a refactor removed are
#: skipped (their time then falls to the enclosing span), so renaming an
#: internal seam cannot break the benchmark — only the two underscored
#: names are internal; they are the timer/flush callbacks through which
#: the kernel enters a processor without passing ``handle``.
SEAMS: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "simulator.kernel": ("repro.simulator", "Simulator",
                         ("run", "run_until")),
    "simulator.network.send": ("repro.simulator", "Network", ("send",)),
    "core.ingester": ("repro.core", "Ingester",
                      ("handle", "schedule_stream", "issue_query")),
    "core.processor": ("repro.core", "Processor",
                       ("handle", "on_idle", "_report_tick",
                        "_send_reports")),
    "core.transport.send": ("repro.core", "ReliableEndpoint", ("send",)),
    "core.transport.recv": ("repro.core", "ReliableEndpoint",
                            ("on_message",)),
    "core.master": ("repro.core", "Master", ("handle",)),
    "storage.put": ("repro.storage", "VersionedStore",
                    ("put", "put_many", "put_columns", "put_if_newer")),
    "storage.read": ("repro.storage", "VersionedStore",
                     ("get", "get_version", "peek_version", "get_many")),
    "storage.snapshot": ("repro.storage", "VersionedStore", ("snapshot",)),
    "storage.gc": ("repro.storage", "VersionedStore",
                   ("drop_loop", "truncate_before")),
    "live.master.send": ("repro.live", "MasterNet", ("send",)),
    "live.master.forward": ("repro.live", "MasterNet", ("forward",)),
    "live.master.pump": ("repro.live", "LiveJob",
                         ("run_until_converged",)),
}

#: ``VertexProgram`` callbacks of the workload's own program class.
PROGRAM_CALLBACKS = ("init", "gather", "scatter", "gather_cost",
                     "activate_on_fork", "snapshot_value")

#: Frames kept for the wire probe.
FRAME_SAMPLE = 4096
#: Deepest span nesting the ledger supports (the real depth is ~6).
MAX_DEPTH = 64


class Ledger:
    """Running per-span totals plus the nesting stack."""

    def __init__(self) -> None:
        #: span name -> [calls, total seconds, self seconds]
        self.spans: dict[str, list] = {}
        # _child[d] accumulates the durations of the spans that closed
        # directly under the open span at depth d (slot 0: top level).
        self._child = [0.0] * MAX_DEPTH
        self._depth = 0
        self._gc_started = 0.0
        #: Wall seconds spent in gen-2 collections (subset of runtime.gc).
        self.gc_gen2_s = 0.0
        #: The first ``FRAME_SAMPLE`` frames the live master routed since
        #: the last ``reset`` (the wire probe pickles them afterwards).
        self.frames: list = []

    # ------------------------------------------------------------- spans
    def _totals(self, span: str) -> list:
        totals = self.spans.get(span)
        if totals is None:
            totals = self.spans[span] = [0, 0.0, 0.0]
        return totals

    def _wrap(self, function: Callable, span: str) -> Callable:
        totals = self._totals(span)
        child = self._child
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            depth = self._depth + 1
            self._depth = depth
            child[depth] = 0.0
            started = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - started
                self._depth = depth - 1
                child[depth - 1] += elapsed
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - child[depth]

        traced.__wrapped__ = function
        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        elapsed = time.perf_counter() - self._gc_started
        # A collection has no children: bill it whole and hide it from
        # the span it interrupted.
        self._child[self._depth] += elapsed
        totals = self._totals("runtime.gc")
        totals[0] += 1
        totals[1] += elapsed
        totals[2] += elapsed
        if info["generation"] == 2:
            self.gc_gen2_s += elapsed

    # ----------------------------------------------------------- install
    def install(self, program_class: type) -> None:
        """Wrap every seam and the program's callbacks.  Irreversible by
        design: a traced pass owns its interpreter."""
        for span, (module, class_name, methods) in SEAMS.items():
            cls = getattr(importlib.import_module(module), class_name)
            for method in methods:
                # Only wrap what the class itself defines, so a subclass
                # inheriting the method is not traced twice.
                if method in vars(cls):
                    setattr(cls, method, self._wrap(vars(cls)[method], span))
        for method in PROGRAM_CALLBACKS:
            for cls in program_class.__mro__:
                if cls is not object and method in vars(cls) \
                        and callable(vars(cls)[method]):
                    setattr(cls, method,
                            self._wrap(vars(cls)[method], "algorithms"))
                    break
        from repro.live import MasterNet
        routed = vars(MasterNet).get("forward")
        if routed is not None:
            # Sampled outside the route span, so keeping frames for the
            # wire probe is not billed to routing.
            def forward(net: Any, wire: Any) -> None:
                if len(self.frames) < FRAME_SAMPLE:
                    self.frames.append(wire)
                routed(net, wire)

            MasterNet.forward = forward
        gc.callbacks.append(self._on_gc)

    def close(self) -> None:
        """Stop recording: later calls through the wrappers (result
        checks, shutdown) must not reach the totals the pass reports."""
        gc.callbacks.remove(self._on_gc)
        self.spans = {span: list(totals)
                      for span, totals in self.spans.items()}

    # ------------------------------------------------------------- reads
    def reset(self) -> None:
        """Zero the totals (called where the measured sections start, so
        set-up work is not in the ledger)."""
        for totals in self.spans.values():
            totals[0], totals[1], totals[2] = 0, 0.0, 0.0
        self.gc_gen2_s = 0.0
        self.frames.clear()

    def calls(self, span: str) -> int:
        return self.spans.get(span, (0, 0.0, 0.0))[0]

    def self_s(self, span: str) -> float:
        return self.spans.get(span, (0, 0.0, 0.0))[2]

    def total_self_s(self) -> float:
        return sum(totals[2] for totals in self.spans.values())
