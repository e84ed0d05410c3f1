"""Primary-backup replication with majority-quorum acknowledgement.

A :class:`Replicator` is installed as a :class:`ChronicleServer`'s
``replicator`` hook on each shard primary.  The server applies a
mutating request locally (under the stream lock), then hands the request
here; the replicator ships the *batch payload bytes the primary
received*, unmodified, to every replica synchronously and acknowledges
the client only once a majority of the replica group (primary included)
holds the events.  Replica sends absorb transient connection failures
through the client pool, whose retries run
:meth:`~repro.core.devices.RetryPolicy.run`.

Because the primary applies before shipping, a failed quorum leaves the
primary ahead of its acknowledgement — the classic primary-backup
asymmetry.  The client's append *fails*, so the event is not
acknowledged; failover reconciliation (:func:`reconcile_stream`)
deduplicates by (timestamp, values) multiset, so a re-sent batch never
double-counts.
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter

from repro.cluster.placement import Endpoint
from repro.cluster.pool import ClientPool
from repro.errors import ReplicationError
from repro.events.event import ColumnarEvents, Event
from repro.events.schema import EventSchema
from repro.net import frames
from repro.net.client import RemoteError
from repro.obs import OBS

_HUGE = 2**62

_REPLICATED_BATCHES = OBS.counter("cluster.replicated_batches")
_REPLICA_ACKS = OBS.counter("cluster.replica_acks")
_REPLICATION_FAILURES = OBS.counter("cluster.replication_failures")
_CATCHUP_EVENTS = OBS.counter("cluster.catchup_events")


class Replicator:
    """Synchronous fan-out from one shard primary to its replicas.

    Parameters
    ----------
    replicas:
        Backup endpoints of this shard.
    pool:
        Connection pool (shared with the cluster orchestrator).
    quorum:
        Total acks (primary included) required before an append is
        acknowledged; defaults to a majority of the replica group.
    """

    def __init__(
        self,
        replicas: tuple[Endpoint, ...],
        pool: ClientPool,
        quorum: int | None = None,
    ):
        self.replicas = tuple(replicas)
        self.pool = pool
        group = 1 + len(self.replicas)
        self.quorum = quorum if quorum is not None else group // 2 + 1
        self.batches = 0
        self.events = 0
        self.failures = 0
        #: Events acknowledged per replica (drives the lag report).
        self.acked_events: dict[Endpoint, int] = {
            r: 0 for r in self.replicas
        }

    # ------------------------------------------------------------- the hook

    def __call__(self, request: dict) -> None:
        op = request.get("op")
        if op == "create_stream":
            self._replicate_create(request)
        elif op == "append_batch":
            self._replicate_batch(request)

    def _replicate_create(self, request: dict) -> None:
        """Stream creation goes to *every* replica — a stream missing on
        any backup would poison later quorums — so creation requires all
        replicas up, not just a majority."""
        for replica in self.replicas:
            try:
                self.pool.run(replica, lambda c: c.call(request))
            except RemoteError as error:
                if "already exists" not in str(error):
                    raise ReplicationError(
                        f"create_stream on {replica}: {error}"
                    ) from error
            except Exception as error:
                raise ReplicationError(
                    f"create_stream on {replica}: {error}"
                ) from error

    def _replicate_batch(self, request: dict) -> None:
        # Zero-copy: the server hands over the batch payload it
        # received; ship those bytes unmodified.  The payload is
        # self-describing (stream + schema + columns), so replicas need
        # no side-channel schema.
        stream, raw = request["stream"], request["raw"]
        count = frames.batch_event_count(raw)
        acks = 1  # the primary already applied locally
        errors = []
        for replica in self.replicas:
            try:
                self.pool.run(replica, lambda c: c.replicate_raw(raw))
            except Exception as error:
                errors.append(f"{replica}: {error}")
                continue
            acks += 1
            self.acked_events[replica] += count
            if OBS.enabled:
                _REPLICA_ACKS.inc()
        self.batches += 1
        self.events += count
        if OBS.enabled:
            _REPLICATED_BATCHES.inc()
        if acks < self.quorum:
            self.failures += 1
            if OBS.enabled:
                _REPLICATION_FAILURES.inc()
            raise ReplicationError(
                f"quorum {self.quorum} not reached for {stream!r}: "
                f"{acks}/{1 + len(self.replicas)} acks "
                f"({'; '.join(errors)})"
            )

    # -------------------------------------------------------------- reports

    def lag(self) -> dict[str, int]:
        """Events the primary has acknowledged that each replica has not."""
        return {
            str(replica): self.events - acked
            for replica, acked in self.acked_events.items()
        }

    def stats(self) -> dict:
        return {
            "replicas": [str(r) for r in self.replicas],
            "quorum": self.quorum,
            "batches": self.batches,
            "events": self.events,
            "failures": self.failures,
            "lag": self.lag(),
        }


# ------------------------------------------------------------------ catch-up


def range_counter(
    pool: ClientPool,
    endpoint: Endpoint,
    stream: str,
    t_lo: int,
    t_hi: int,
) -> tuple[EventSchema | None, Counter]:
    """The stream's schema and the ``(t, values)`` multiset a node holds
    for a timestamp range; ``(None, empty)`` when the node never saw
    the stream."""
    try:
        fetched = pool.run(endpoint, lambda c: c.catchup(stream, t_lo, t_hi))
    except RemoteError:
        return None, Counter()
    return fetched["schema"], Counter(
        (event.t, event.values) for event in fetched["events"]
    )


def _as_batch(counts: Counter, schema: EventSchema | None) -> ColumnarEvents:
    """A ``(t, values)`` multiset as one time-sorted batch."""
    events = sorted(
        (Event(t, values) for (t, values), n in counts.items() for _ in range(n)),
        key=attrgetter("t"),
    )
    return ColumnarEvents.of(events, schema.arity if schema else 0)


def missing_in_range(
    pool: ClientPool,
    source: Endpoint,
    target: Endpoint,
    stream: str,
    t_lo: int,
    t_hi: int,
) -> ColumnarEvents:
    """Events of ``[t_lo, t_hi]`` the source holds that the target does
    not, as a time-sorted batch — the live-migration copy/tail-sync
    unit.  Multiset semantics match :func:`reconcile_stream`: legitimate
    duplicates ship the right number of extra copies, already-copied
    events never ship twice, so one more pass over a quiescent range is
    always a no-op.
    """
    _, have = range_counter(pool, target, stream, t_lo, t_hi)
    schema, want = range_counter(pool, source, stream, t_lo, t_hi)
    return _as_batch(want - have, schema)


def reconcile_stream(
    pool: ClientPool,
    target: Endpoint,
    sources: list[Endpoint],
    stream: str,
) -> int:
    """Ship *target* every event any source holds that it does not.

    Events are compared as a multiset of ``(t, values)`` — duplicates a
    stream legitimately contains are preserved, while events already on
    the target (e.g. replicated before the primary died) are never
    applied twice.  A target that never saw the stream is created by
    the shipped schema.  Returns the number of events applied.
    """
    _, have = range_counter(pool, target, stream, -_HUGE, _HUGE)
    needed: Counter = Counter()
    schema = None
    for source in sources:
        source_schema, counts = range_counter(pool, source, stream, -_HUGE, _HUGE)
        if source_schema is not None:
            schema = source_schema
            # Two sources holding the same event both *witness* it once:
            # take the max across sources (a union), not the sum.
            needed |= counts
    missing = _as_batch(needed - have, schema)
    if not missing:
        return 0
    pool.run(target, lambda c: c.replicate_batch(stream, missing, schema))
    if OBS.enabled:
        _CATCHUP_EVENTS.inc(len(missing))
    return len(missing)
