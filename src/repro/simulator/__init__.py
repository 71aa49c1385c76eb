"""Deterministic discrete-event cluster simulator.

This package replaces both the 20-node cluster and the Apache Storm
runtime of the original paper (Tornado's actors run on it directly): it
models single-threaded workers (:class:`Actor`), a shared network fabric
with latency and a throughput ceiling (:class:`Network`), per-node disks
(:class:`SimulatedDisk`) and crash/recovery injection
(:class:`FailureInjector`), all driven by one virtual clock
(:class:`Simulator`).
"""

from repro.simulator.actors import Actor
from repro.simulator.disk import SimulatedDisk
from repro.simulator.events import Event, EventQueue
from repro.simulator.failures import FailureInjector, FailureLog
from repro.simulator.kernel import Scheduled, Simulator
from repro.simulator.network import LinkStats, Network, NetworkStats
from repro.simulator.randomness import RandomStreams
from repro.simulator.timers import Timer, TimerWheel

__all__ = [
    "Actor",
    "Event",
    "EventQueue",
    "FailureInjector",
    "FailureLog",
    "LinkStats",
    "Network",
    "NetworkStats",
    "RandomStreams",
    "Scheduled",
    "SimulatedDisk",
    "Simulator",
    "Timer",
    "TimerWheel",
]
