"""Evolving-data streams: turnstile model, sources and sampling."""

from repro.streams.model import (ADD_EDGE, ADD_INSTANCE, ADD_POINT,
                                 REMOVE_EDGE, StreamTuple, TurnstileState,
                                 prefix_at)
from repro.streams.sampling import (RecencyBiasedBuffer, ReservoirSampler,
                                    sample_is_uniform)
from repro.streams.sources import (RateSchedule, UniformRate, edge_stream,
                                   instance_stream, point_stream, stream_from)

__all__ = [
    "ADD_EDGE",
    "ADD_INSTANCE",
    "ADD_POINT",
    "REMOVE_EDGE",
    "RateSchedule",
    "RecencyBiasedBuffer",
    "ReservoirSampler",
    "StreamTuple",
    "TurnstileState",
    "UniformRate",
    "edge_stream",
    "instance_stream",
    "point_stream",
    "prefix_at",
    "sample_is_uniform",
    "stream_from",
]
