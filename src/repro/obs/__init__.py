"""Observability: deterministic flight recorder and metrics registry.

``repro.obs`` is the shared instrumentation layer.  A
:class:`TraceRecorder` (typed, bounded ring buffer of events stamped with
virtual time) and a :class:`MetricsRegistry` (named counters, gauges and
histograms) are injected through :class:`repro.simulator.Simulator`, so
the kernel, the network and the Tornado runtime all publish into one
sink.  Tracing is zero-cost when disabled and byte-for-byte deterministic
when enabled: the same seed produces an identical trace, which makes the
recorder double as a regression oracle.

On top of the recorder sit the analyses: per-iteration protocol phase
tables (:mod:`repro.obs.report`) and SnailTrail-style critical-path
extraction (:mod:`repro.obs.critical_path`).
"""

from repro.obs.critical_path import (CriticalPathReport, PathSegment,
                                     WindowPath, extract_critical_path)
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry)
from repro.obs.report import phase_counts, render_phase_table
from repro.obs.trace import TraceEvent, TraceRecorder

__all__ = [
    "Counter",
    "CriticalPathReport",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PathSegment",
    "TraceEvent",
    "TraceRecorder",
    "WindowPath",
    "extract_critical_path",
    "phase_counts",
    "render_phase_table",
]
