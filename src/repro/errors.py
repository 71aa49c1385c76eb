"""Exception hierarchy shared across the repro library."""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError, ValueError):
    """A configuration was rejected at construction (unknown option,
    out-of-range value, or an unsupported combination)."""


class SimulationError(ReproError):
    """The discrete-event simulator was used incorrectly."""


class ProtocolError(ReproError):
    """The three-phase update protocol reached an inconsistent state."""


class StorageError(ReproError):
    """The versioned state store rejected an operation."""


class QueryError(ReproError):
    """A user query could not be answered (unknown branch, not converged...)."""


class AdmissionError(QueryError):
    """Admission control rejected a request.  Subclasses name the
    rejection reason so callers (and tests) can react precisely."""


class BackpressureError(AdmissionError):
    """An ingest backlog is over its pending-input bound; the caller
    should retry after the ingester drains."""
