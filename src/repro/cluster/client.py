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
from repro.obs import OBS
from repro.query.parser import parse as parse_query
from repro.query.partials import finalize_result, merge_partials
from repro.query.planner import plan_scatter

_FORWARDED_BATCHES = OBS.counter("cluster.forwarded_batches")
_FORWARDED_EVENTS = OBS.counter("cluster.forwarded_events")
_SCATTER_QUERIES = OBS.counter("cluster.scatter_queries")
_PLAN_PUSHDOWNS = OBS.counter("cluster.plan_pushdowns")
_EVENT_SCATTERS = OBS.counter("cluster.event_scatters")
_STALE_RETRIES = OBS.counter("cluster.stale_retries")

#: How many shard-map refreshes one logical write will chase before
#: giving up — bounds the retry loop if epochs churn pathologically.
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
            return self.pool.run(spec.primary, lambda c: operation(c))
        except TRANSPORT_ERRORS as error:
            if not is_connection_error(error) or self.cluster is None:
                raise
            self.pool.invalidate(spec.primary)
            self.cluster.ensure_primary(spec.shard_id)
            return self.pool.run(spec.primary, lambda c: operation(c))

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
        self.counters["stale_retries"] += 1
        if OBS.enabled:
            _STALE_RETRIES.inc()

    # -------------------------------------------------------------- appends

    def create_stream(self, name: str, schema: EventSchema) -> None:
        """Created on every shard: striped streams live everywhere, and a
        uniform namespace keeps rerouting after membership changes
        trivial."""
        for spec in self.shard_map.shards:
            self._on_primary(
                spec, lambda c: c.create_stream(name, schema)
            )

    def append(self, stream: str, event: Event) -> None:
        """One event is a one-row batch, routed like any other."""
        self.append_batch(stream, [event])

    def append_batch(
        self, stream: str, events, _route_attempts: int = _ROUTE_ATTEMPTS
    ) -> int:
        """Append a batch, split per owning shard — **pipelined**: every
        shard's sub-batch is submitted before any response is awaited,
        so shard primaries ingest concurrently instead of serializing
        behind one another.  A shard whose submission or response fails
        with a connection error falls back to the synchronous
        reconnect/failover path (:meth:`_on_primary`); application
        errors propagate immediately.  Sub-batches rejected for a stale
        map epoch are re-partitioned under the refreshed map and
        retried (transparent live-split handoff).

        *events* is transposed into one :class:`ColumnarEvents` batch
        (with the stream's arity) before routing.  The epoch is
        snapshotted *before* routing: if the map advances in between,
        the stamped epoch is the older one and the worst case is a
        conservative rejection-and-retry, never a misrouted write
        accepted under the new epoch.
        """
        batch = ColumnarEvents.of(events, self._arity(stream))
        epoch = self.shard_map.version
        by_shard = self.shard_map.partition_batch(stream, batch)
        ordered = sorted(by_shard)
        in_flight: dict[int, object] = {}
        for shard_id in ordered:
            spec = self.shard_map.shards[shard_id]
            try:
                in_flight[shard_id] = self.pool.client(
                    spec.primary
                ).append_batch_async(
                    stream, by_shard[shard_id], epoch=epoch
                )
            except TRANSPORT_ERRORS as error:  # submit failed: retry sync
                in_flight[shard_id] = error
        total = 0
        stale_batches: list = []
        stale: StaleRouteError | None = None
        for shard_id in ordered:
            spec = self.shard_map.shards[shard_id]
            sub_batch = by_shard[shard_id]
            outcome = in_flight[shard_id]
            try:
                if isinstance(outcome, Exception):
                    raise outcome
                total += outcome.result(timeout=self.pool.timeout)
            except StaleRouteError as error:
                stale = error
                self._adopt_map(error, spec)
                stale_batches.append(sub_batch)
            except TRANSPORT_ERRORS as error:
                if not is_connection_error(error):
                    raise
                self.pool.invalidate(spec.primary)
                try:
                    total += self._on_primary(
                        spec,
                        lambda c: c.append_batch(
                            stream, sub_batch, epoch=epoch
                        ),
                    )
                except StaleRouteError as error:
                    stale = error
                    self._adopt_map(error, spec)
                    stale_batches.append(sub_batch)
        if stale_batches:
            if _route_attempts <= 1:
                raise stale
            for sub_batch in stale_batches:
                total += self.append_batch(
                    stream, sub_batch, _route_attempts - 1
                )
        self._count(len(batch), batches=len(by_shard))
        return total

    def _arity(self, stream: str) -> int:
        """The stream's attribute count (the shard client caches the
        schema after asking once)."""
        spec = self.shard_map.shards_for_stream(stream)[0]
        return self._on_primary(spec, lambda c: c.schema(stream)).arity

    def _count(self, events: int, batches: int = 1) -> None:
        self.counters["forwarded_batches"] += batches
        self.counters["forwarded_events"] += events
        if OBS.enabled:
            _FORWARDED_BATCHES.inc(batches)
            _FORWARDED_EVENTS.inc(events)

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
        scatter = plan_scatter(query)
        self.counters["scatter_queries"] += 1
        if OBS.enabled:
            _SCATTER_QUERIES.inc()
        if scatter["mode"] == "events":
            self.counters["event_scatters"] += 1
            if OBS.enabled:
                _EVENT_SCATTERS.inc()
            return self._scatter_events(sql, specs, query)
        self.counters["plan_pushdowns"] += 1
        if OBS.enabled:
            _PLAN_PUSHDOWNS.inc()
        return self._scatter_partials(sql, specs, query)

    execute = query

    def _scatter_events(self, sql: str, specs, query):
        shard_results = [
            self._on_primary(spec, lambda c: c.query(sql))
            for spec in specs
        ]
        merged = list(heap_merge(*shard_results, key=lambda e: e.t))
        if query.limit is not None:
            merged = merged[: query.limit]
        return merged

    def _scatter_partials(self, sql: str, specs, query):
        partials = [
            self._on_primary(spec, lambda c: c.query_partials(sql))
            for spec in specs
        ]
        return finalize_result(merge_partials(partials, query), query)

    # ---------------------------------------------------------------- admin

    def flush(self) -> None:
        for spec in self.shard_map.shards:
            self._on_primary(spec, lambda c: c.flush())

    def list_streams(self) -> list[str]:
        streams: set[str] = set()
        for spec in self.shard_map.shards:
            streams.update(
                self._on_primary(spec, lambda c: c.list_streams())
            )
        return sorted(streams)

    def stats(self) -> dict:
        """Per-shard primary stats plus the router's own counters."""
        out = {
            "router": dict(self.counters),
            "shards": {},
        }
        for spec in self.shard_map.shards:
            out["shards"][spec.shard_id] = self._on_primary(
                spec, lambda c: c.stats()
            )
        if self.cluster is not None:
            out["cluster"] = self.cluster.stats()
        return out

    def close(self) -> None:
        self.pool.close()

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
