"""Exception hierarchy shared across the repro library."""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError, ValueError):
    """A configuration was rejected at construction (unknown option,
    out-of-range value, or an unsupported combination)."""


class SimulationError(ReproError):
    """The discrete-event simulator was used incorrectly."""


class TopologyError(ReproError):
    """A stream topology is malformed (unknown component, bad grouping...)."""


class ProtocolError(ReproError):
    """The three-phase update protocol reached an inconsistent state."""


class StorageError(ReproError):
    """The versioned state store rejected an operation."""


class ConvergenceError(ReproError):
    """A loop failed to converge within its iteration budget."""


class QueryError(ReproError):
    """A user query could not be answered (unknown branch, not converged...)."""


class AdmissionError(QueryError):
    """Multi-tenant admission control rejected a request.  Subclasses name
    the rejection reason so callers (and tests) can react precisely."""


class DuplicateTenantError(AdmissionError):
    """A tenant id is already registered with the JobManager."""


class PoolExhaustedError(AdmissionError):
    """The shared processor pool has too few free slots for the request."""


class QuotaExceededError(AdmissionError):
    """A submission or running tenant exceeded its per-tenant quota."""


class BackpressureError(AdmissionError):
    """A tenant's ingest backlog is over its pending-input quota; the
    caller should retry after the tenant's ingester drains."""
