"""The cluster router: shard-aware appends and scatter-gather queries.

``ClusterClient`` looks like
:class:`~repro.net.client.BinaryChronicleClient` but routes by the
shared :class:`~repro.cluster.placement.ShardMap`: appends go to the
owning shard's primary (batches split per shard with order preserved,
so each sub-batch keeps the run-batching fast path);
queries against striped streams fan out to every shard and merge —
events by timestamp, aggregates by re-aggregating ``(min, max, sum,
count, sum_squares)`` partials so cluster aggregates stay index-only.
"""

from __future__ import annotations

from heapq import merge as heap_merge

from repro.cluster.placement import ShardMap, ShardSpec
from repro.cluster.pool import (
    TRANSPORT_ERRORS,
    ClientPool,
    is_connection_error,
)
from repro.errors import StaleRouteError
from repro.events.event import ColumnarEvents, Event
from repro.events.schema import EventSchema
from repro.obs import tally
from repro.query.ast import SelectStar
from repro.query.parser import parse as parse_query
from repro.query.partials import finalize_result, merge_partials

#: How many routing rounds one logical write runs before giving up —
#: each round re-partitions what a stale map epoch rejected, so this
#: bounds the loop if epochs churn pathologically.
_ROUTE_ATTEMPTS = 4


class ClusterClient:
    """Routes one application's traffic into the cluster.

    ``cluster``, when given (in-process deployments), lets the router
    trigger failover on a dead primary instead of failing the request —
    the request is then retried once against the new primary.
    """

    def __init__(
        self,
        shard_map: ShardMap,
        pool: ClientPool | None = None,
        cluster=None,
    ):
        self.shard_map = shard_map
        self.pool = pool if pool is not None else ClientPool()
        self.cluster = cluster
        self.counters = {
            "forwarded_batches": 0,
            "forwarded_events": 0,
            "scatter_queries": 0,
            "plan_pushdowns": 0,
            "event_scatters": 0,
            "stale_retries": 0,
        }

    # -------------------------------------------------------------- routing

    def _on_primary(self, spec: ShardSpec, operation):
        """Run against the shard primary, failing over once if the
        in-process cluster can elect a replacement."""
        try:
            return self.pool.run(spec.primary, operation)
        except TRANSPORT_ERRORS as error:
            if not is_connection_error(error) or self.cluster is None:
                raise
            self.pool.fail_over(spec.primary, spec.shard_id, self.cluster)
            return self.pool.run(spec.primary, operation)

    def _on_primaries(self, operation, specs=None) -> list:
        """:meth:`_on_primary` on each shard in turn (default: all)."""
        if specs is None:
            specs = self.shard_map.shards
        return [self._on_primary(spec, operation) for spec in specs]

    def _adopt_map(self, stale: StaleRouteError, spec: ShardSpec) -> None:
        """Refresh the router's shard map after a stale-route
        rejection: install the map carried on the error, falling back
        to a ``map_sync`` against the rejecting node.  An in-process
        router sharing the orchestrator's map object may already be
        current — then both are no-ops and the retry re-routes under
        the shared map's new epoch."""
        adopted = self.shard_map.install_wire(stale.wire_map)
        if (
            not adopted
            and stale.epoch is not None
            and self.shard_map.version < stale.epoch
        ):
            synced = self.pool.run(spec.primary, lambda c: c.map_sync())
            self.shard_map.install_wire(synced.get("map"))
        tally(self.counters, "cluster", stale_retries=1)

    # -------------------------------------------------------------- appends

    def create_stream(self, name: str, schema: EventSchema) -> None:
        """Created on every shard: striped streams live everywhere, and a
        uniform namespace keeps rerouting after membership changes
        trivial."""
        self._on_primaries(lambda c: c.create_stream(name, schema))

    def append(self, stream: str, event: Event) -> None:
        """One event is a one-row batch, routed like any other."""
        self.append_batch(stream, [event])

    def append_batch(self, stream: str, events) -> int:
        """Append a batch, split per owning shard — **pipelined**: every
        shard's sub-batch is submitted before any response is awaited,
        so shard primaries ingest concurrently instead of serializing
        behind one another.  A shard whose submission or response fails
        with a connection error falls back to the synchronous
        reconnect/failover path (:meth:`_on_primary`); application
        errors propagate immediately.  Sub-batches rejected for a stale
        map epoch are re-partitioned under the refreshed map in the
        next routing round (transparent live-split handoff).

        *events* is transposed into one :class:`ColumnarEvents` batch
        (with the stream's arity) before routing.  Each round snapshots
        the epoch *before* routing: if the map advances in between, the
        stamped epoch is the older one and the worst case is a
        conservative rejection-and-retry, never a misrouted write
        accepted under the new epoch.
        """
        pending = [ColumnarEvents.of(events, self._arity(stream))]
        total = forwarded_events = forwarded_batches = 0
        for _ in range(_ROUTE_ATTEMPTS):
            stale: list = []
            for batch in pending:
                acked, sub_batches = self._route(stream, batch, stale)
                total += acked
                forwarded_events += len(batch)
                forwarded_batches += sub_batches
            if not stale:
                tally(
                    self.counters, "cluster",
                    forwarded_batches=forwarded_batches,
                    forwarded_events=forwarded_events,
                )
                return total
            pending = [sub_batch for _, sub_batch in stale]
        raise stale[-1][0]

    def _route(self, stream: str, batch: ColumnarEvents, stale: list):
        """One routing round of *batch*: submit every shard's sub-batch,
        then settle each.  A sub-batch rejected for a stale map epoch
        goes on *stale* as ``(error, sub_batch)`` once the fresher map
        is adopted.  Returns ``(events acked, sub-batches sent)``."""
        epoch = self.shard_map.version
        by_shard = self.shard_map.partition_batch(stream, batch)
        in_flight: dict[int, object] = {}
        for shard_id in sorted(by_shard):
            spec = self.shard_map.shards[shard_id]
            try:
                in_flight[shard_id] = self.pool.client(
                    spec.primary
                ).append_batch_async(
                    stream, by_shard[shard_id], epoch=epoch
                )
            except TRANSPORT_ERRORS as error:  # submit failed: retry sync
                in_flight[shard_id] = error
        acked = 0
        for shard_id, outcome in in_flight.items():
            spec = self.shard_map.shards[shard_id]
            sub_batch = by_shard[shard_id]
            try:
                acked += self._settle(
                    spec,
                    outcome,
                    lambda c: c.append_batch(stream, sub_batch, epoch=epoch),
                )
            except StaleRouteError as error:
                self._adopt_map(error, spec)
                stale.append((error, sub_batch))
        return acked, len(by_shard)

    def _settle(self, spec: ShardSpec, outcome, resend) -> int:
        """An in-flight append's ack.  A connection failure, at submit
        or while waiting, drops the dead client and re-sends through
        :meth:`_on_primary`, the reconnect/failover path."""
        try:
            if isinstance(outcome, Exception):
                raise outcome
            return outcome.result(timeout=self.pool.timeout)
        except TRANSPORT_ERRORS as error:
            if not is_connection_error(error):
                raise
            self.pool.invalidate(spec.primary)
            return self._on_primary(spec, resend)

    def _arity(self, stream: str) -> int:
        """The stream's attribute count (the shard client caches the
        schema after asking once)."""
        spec = self.shard_map.shards_for_stream(stream)[0]
        return self._on_primary(spec, lambda c: c.schema(stream)).arity

    # -------------------------------------------------------------- queries

    def query(self, sql: str):
        """Run SQL cluster-wide; same result shape as the single-node
        client: a list of events, a dict of aggregates, or grouped rows.

        Scatter-gather ships *plans*, not events: every shard runs the
        query through :func:`repro.query.planner.execute` — the same
        call a single node makes, index-only wherever the statistics
        allow, columnar under a predicate — in components mode, so
        aggregate scatters return partial components for the router to
        merge; only ``SELECT *`` ever moves raw events.
        """
        query = parse_query(sql)
        specs = self.shard_map.shards_for_stream(query.stream)
        if len(specs) == 1:
            return self._on_primary(specs[0], lambda c: c.query(sql))
        if isinstance(query.select, SelectStar):
            tally(self.counters, "cluster", scatter_queries=1,
                  event_scatters=1)
            shard_results = self._on_primaries(lambda c: c.query(sql), specs)
            merged = list(heap_merge(*shard_results, key=lambda e: e.t))
            return merged if query.limit is None else merged[: query.limit]
        tally(self.counters, "cluster", scatter_queries=1, plan_pushdowns=1)
        partials = self._on_primaries(lambda c: c.query_partials(sql), specs)
        return finalize_result(merge_partials(partials, query), query)

    execute = query

    # ---------------------------------------------------------------- admin

    def flush(self) -> None:
        self._on_primaries(lambda c: c.flush())

    def list_streams(self) -> list[str]:
        return sorted(
            set().union(*self._on_primaries(lambda c: c.list_streams()))
        )

    def stats(self) -> dict:
        """Per-shard primary stats plus the router's own counters."""
        out = {
            "router": dict(self.counters),
            "shards": {
                spec.shard_id: self._on_primary(spec, lambda c: c.stats())
                for spec in self.shard_map.shards
            },
        }
        if self.cluster is not None:
            out["cluster"] = self.cluster.stats()
        return out

    def close(self) -> None:
        self.pool.close()

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
