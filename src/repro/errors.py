"""Exception hierarchy for the ChronicleDB reproduction.

Every error raised by the library derives from :class:`ChronicleError` so
applications can install a single ``except`` boundary around event-store
calls.
"""

from __future__ import annotations


class ChronicleError(Exception):
    """Base class of all errors raised by this library."""


class SchemaError(ChronicleError):
    """An event does not match its stream's schema, or a schema is invalid."""


class CorruptBlockError(ChronicleError):
    """A physical block failed checksum or magic validation."""


class StorageError(ChronicleError):
    """A storage-layout level invariant was violated (bad address, bad id)."""


class DiskFaultError(ChronicleError):
    """Base of device-fault errors injected by :mod:`repro.simdisk.faults`."""


class DiskCrashed(DiskFaultError):
    """Simulated power failure.

    The device persisted a (possibly empty) prefix of the faulting write;
    every further access raises again until the fault plan is disarmed,
    modeling a dead process.  Recovery happens by reopening the stream
    from the same devices.
    """


class TransientDiskError(DiskFaultError):
    """A transient device error; the operation is safe to retry.

    :class:`repro.core.devices.RetryingDisk` absorbs these with bounded
    retry/backoff and re-raises only when the budget is exhausted.
    """


class CompressionError(ChronicleError):
    """A codec failed to round-trip a block."""


class RecoveryError(ChronicleError):
    """Crash recovery could not restore a consistent state."""


class QueryError(ChronicleError):
    """A query is malformed (unknown attribute, bad range, parse error)."""


class ConfigError(ChronicleError):
    """Invalid engine or layout configuration."""


class ProtocolError(ChronicleError):
    """A network peer violated the wire protocol (e.g. a bad frame
    magic); the connection cannot be resynchronized."""


class ClusterError(ChronicleError):
    """A cluster-level operation failed (routing, placement, failover)."""


class ReplicationError(ClusterError):
    """A replicated write could not reach its ack quorum."""


class StaleRouteError(ClusterError):
    """A write was routed with an out-of-date shard map.

    Raised by a node whose installed map epoch is newer than the epoch
    the request was stamped with.  Carries the node's current epoch and
    (when available) its wire-form map, so the router can adopt the new
    map and re-route without an extra ``map_sync`` round trip.
    """

    def __init__(self, message: str, epoch: int | None = None, wire_map=None):
        super().__init__(message)
        self.epoch = epoch
        self.wire_map = wire_map


class SubscriptionError(ChronicleError):
    """A subscription request was invalid (unknown stream, bad cursor,
    unsupported transport)."""


class SubscriptionClosed(ChronicleError):
    """A live subscription ended.

    Carries the server's typed ``reason``: ``"unsubscribed"`` (client
    asked), ``"server_closing"`` (clean shutdown drain),
    ``"slow_consumer"`` (disconnect policy tripped),
    ``"ownership_changed"`` (a shard-map epoch swap moved the stream —
    resubscribe at the new owner), ``"stream_dropped"``, or
    ``"transport"`` (the connection died without a notice).
    """

    def __init__(self, message: str, reason: str = "unknown"):
        super().__init__(message)
        self.reason = reason
