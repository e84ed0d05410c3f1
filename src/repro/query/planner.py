"""The cost-based query planner (PR 8 tentpole).

Two access paths compete for every query:

``index_only``
    Answer aggregates purely from the TAB+-tree's lightweight index
    aggregates, sealed-split summaries and cold-rollup rows — leaves are
    decoded only where a range or bucket boundary cuts an index entry.
    Grouped queries run **one** descent per boundary split
    (:meth:`TabTree.grouped_components`), not one per bucket.

``columnar``
    Vectorized leaf scan (:mod:`repro.query.columnar`): batch-at-a-time
    column decoding with late materialization.  Chosen for filtered
    queries, for every ``SELECT *`` and for unfiltered aggregates the
    index cannot answer (unindexed attribute, ``stdev`` without extended
    aggregates).

Every aggregate plan runs one executor, :func:`_aggregates`: index
statistics answer where they can, and every other attribute is
collected in one :func:`columnar.gather` pass over the leaves.

Both paths read one view of a stream (:meth:`EventStream._splits`): leaf
windows in time order with each split's queued late events spliced in
as one more leaf, and index statistics plus those queued values.

Every plan must return exactly what the row-at-a-time oracle
(``repro.testing.oracle``, never imported here) returns.  Plan choice is
observable: ``ChronicleDB.explain(sql)`` renders the
:class:`~repro.query.plan.Plan` without running it, and ``planner.*``
metrics count chosen kinds and scan work when observation is enabled.

:func:`execute` is the only way a query runs — embedded
``db.execute``, the server's finals, a shard's ``partials`` reply and
ownership-filtered reads after a split are the same plans with two call
arguments: *owned* (the time slices a node owns: each runs these plans
unchanged, and the slices combine as the router combines shards) and
*components* (aggregates leave as mergeable
:mod:`~repro.query.partials` components, not finals).
"""

from __future__ import annotations

from copy import copy

from repro.errors import QueryError
from repro.index.queries import fold
from repro.obs import OBS
from repro.query import columnar
from repro.query.ast import Query, SelectStar
from repro.query.parser import parse
from repro.query.partials import (
    components_from_accumulator,
    components_of_values,
    finalize_result,
    merge_partials,
)
from repro.query.plan import COLUMNAR, INDEX_ONLY, Plan

_PLAN_COUNTERS = {
    INDEX_ONLY: OBS.counter("planner.plans_index_only"),
    COLUMNAR: OBS.counter("planner.plans_columnar"),
}
_LEAVES_SCANNED = OBS.counter("planner.leaves_scanned")
_LEAVES_SKIPPED = OBS.counter("planner.leaves_skipped")
_VALUES_DECODED = OBS.counter("planner.values_decoded")
_ROWS_MATERIALIZED = OBS.counter("planner.rows_materialized")


def execute(db, query, materialize: bool = True, owned=None,
            components: bool = False):
    """Plan and run *query* — the engine-wide query entry point.

    *query* is SQL text or an already-parsed query (the server parses
    once, outside the stream lock, and hands the result through).  With
    ``materialize=False`` a columnar ``SELECT *`` comes back as the
    :class:`~repro.events.event.ColumnarEvents` batch the scan built,
    for callers that encode columns straight onto the wire.

    *owned*, when given, is the sorted, merged list (or iterable) of
    inclusive ``(t_lo, t_hi)`` slices this node owns: a split's source
    shard retains dead copies of ranges it handed off, and the serving
    node reads only its own slices (:func:`_run_owned`).  With
    *components* an aggregate query returns ``{"aggregates": {label:
    components}}`` or ``{"groups": [{"t_start", "t_end", label:
    components, ...}]}`` — what a shard ships for the router to merge
    (:func:`repro.query.partials.finalize_result` turns either back into
    finals).
    """
    if isinstance(query, str):
        query = parse(query)
    stream = db.get_stream(query.stream)
    validate(stream, query)
    if owned is not None:
        return _run_owned(stream, query, owned, materialize, components)
    return run_plan(stream, build_plan(stream, query), materialize, components)


def _run_owned(stream, query, owned, materialize: bool, components: bool):
    """*query* over the owned slices, run the way
    :meth:`~repro.cluster.client.ClusterClient.query` runs it over
    shards: each slice is the query cut to that time range, with its own
    plan.  ``SELECT *`` batches concatenate in time order, ``LIMIT``
    counted across them (a reader stops at the slice that fills it);
    aggregate slices merge as components (float sums re-associate, as
    across shards), and one slice is the cut query."""
    parts = _cuts(query, owned)
    if isinstance(query.select, SelectStar):
        if components:
            raise QueryError("SELECT * has no partial-aggregate form")
        out = columnar.empty_batch(stream.schema)
        for part in parts:
            if query.limit is not None:
                part.limit = query.limit - len(out)
            if part.limit == 0:
                break
            batch = run_plan(stream, build_plan(stream, part), False)
            out.append_rows(batch.timestamps, batch.columns, range(len(batch)))
        return out.materialize() if materialize else out
    parts = list(parts)
    if len(parts) == 1:
        return run_plan(stream, build_plan(stream, parts[0]), materialize,
                        components)
    merged = merge_partials([
        run_plan(stream, build_plan(stream, part), components=True)
        for part in parts
    ], query)
    return merged if components else finalize_result(merged, query)


def _cuts(query, owned):
    """*query* cut to each inclusive ``(t_lo, t_hi)`` slice it overlaps."""
    for t_lo, t_hi in owned:
        part = copy(query)
        part.t_start = max(t_lo, query.t_start)
        part.t_end = min(t_hi, query.t_end)
        if part.t_start <= part.t_end:
            yield part


def explain(db, sql: str) -> dict:
    """The plan for *sql*, without executing it."""
    query = parse(sql)
    stream = db.get_stream(query.stream)
    validate(stream, query)
    return build_plan(stream, query).explain()


def validate(stream, query: Query) -> None:
    """Reject queries naming unknown attributes."""
    for attr_range in query.ranges:
        if attr_range.name not in stream.schema:
            raise QueryError(f"unknown attribute {attr_range.name!r}")
    if not isinstance(query.select, SelectStar):
        for agg in query.select:
            if agg.attribute not in stream.schema:
                raise QueryError(f"unknown attribute {agg.attribute!r}")


# ------------------------------------------------------------------ planning


def _estimate_costs(stream, query, estimated_rows: int) -> dict:
    """Rough simulated-CPU estimates per candidate kind (explain only),
    priced by the cost model of the stream's clock."""
    cost = stream.devices.clock.cost_model
    if cost is None:
        return {}
    predicates = len(query.ranges) + len(getattr(query, "strict_checks", []))
    if isinstance(query.select, SelectStar):
        decoded_columns = predicates + stream.schema.arity
    else:
        decoded_columns = predicates + len(
            {agg.attribute for agg in query.select}
        )
    out = {"columnar": estimated_rows * cost.decode_value * decoded_columns}
    if not isinstance(query.select, SelectStar) and not predicates:
        # One logarithmic descent per split.
        out["index_only"] = cost.node_visit * 4 * max(1, len(stream.splits))
    return out


def _filtered(query) -> bool:
    return bool(query.ranges or getattr(query, "strict_checks", []))


def build_plan(stream, query) -> Plan:
    """Pick the cheapest access path that is exactly oracle-equivalent."""
    filtered = _filtered(query)
    segments = stream.plan_segments(query.t_start, query.t_end)
    estimated_rows = stream.estimate_rows(query.t_start, query.t_end)
    costs = _estimate_costs(stream, query, estimated_rows)

    def plan(kind, reason):
        return Plan(
            kind, query, reason, segments=segments,
            estimated_rows=estimated_rows, estimated_cost=costs,
        )

    if isinstance(query.select, SelectStar):
        if filtered:
            return plan(
                COLUMNAR,
                "filtered scan: selection vectors over predicate columns, "
                "late materialization",
            )
        return plan(
            COLUMNAR,
            "full scan in time order, queued late events spliced in as a "
            "leaf; events materialize only at the API boundary",
        )
    if filtered:
        return plan(
            COLUMNAR,
            "filtered aggregate: decode predicate and aggregate columns "
            "only, never materialize events",
        )
    blockers = [
        stream.index_blocker(agg.attribute, agg.function)
        for agg in query.select
    ]
    if any(blockers):
        return plan(
            COLUMNAR,
            f"{next(filter(None, blockers))}: that column is scanned in "
            "time order and its values folded, never materializing events",
        )
    return plan(
        INDEX_ONLY,
        "aggregates answered from index statistics; leaves touched "
        "only at range-cutting flanks",
    )


# ----------------------------------------------------------------- execution


def run_plan(stream, plan: Plan, materialize: bool = True,
             components: bool = False):
    """Execute a built plan against one stream.

    Finals and components come from the same work: index accumulators
    either finalize or serialize, collected value lists either fold or
    accumulate.
    """
    query = plan.query
    select_star = isinstance(query.select, SelectStar)
    if components and select_star:
        raise QueryError("SELECT * has no partial-aggregate form")
    if OBS.enabled:
        _PLAN_COUNTERS[plan.kind].inc()
    stats: dict = {}
    try:
        if select_star:
            batch = columnar.scan_events(stream, query, stats)
            return batch.materialize() if materialize else batch
        result = _aggregates(stream, query, stats, components)
    finally:
        plan.executed = stats
        if OBS.enabled:
            _LEAVES_SCANNED.inc(stats.get("leaves_scanned", 0))
            _LEAVES_SKIPPED.inc(stats.get("leaves_skipped", 0))
            _VALUES_DECODED.inc(stats.get("values_decoded", 0))
            _ROWS_MATERIALIZED.inc(stats.get("rows_materialized", 0))
    if components:
        grouped = query.group_by_time is not None
        return {"groups" if grouped else "aggregates": result}
    return result


def _aggregates(stream, query, stats: dict, components: bool):
    """Every aggregate query, ungrouped or ``GROUP BY time``.

    Each aggregate's source is the index statistics
    (:meth:`EventStream.aggregate_accumulator` /
    :meth:`EventStream.grouped_components`: one descent per boundary
    split, never one read per bucket) unless the query is filtered or
    :meth:`EventStream.index_blocker` names a reason.  Every other attribute is collected by **one**
    :func:`columnar.gather` pass and folded.

    Matches the oracle in either output format.  Ungrouped, a failing
    source raises, and a filtered query selecting no row is refused.
    Grouped buckets are clamped to the raw time bounds; empty buckets
    are omitted, and so are the buckets a tier cannot answer at full
    resolution (cut rollup rows, expired history, raw values rolled
    up), the way the oracle's per-bucket :class:`QueryError` handling
    drops them.
    """
    width = query.group_by_time
    if width is None:
        t_start, t_end = query.t_start, query.t_end
    else:
        window = columnar.bucket_window(stream, query)
        if window is None:
            return []
        t_start, t_end = window
    raw_only = _filtered(query)
    keyed = []
    sources: dict[tuple, dict] = {}  # (attribute, scanned) -> {bucket: source}
    poisoned: set[int] = set()
    for agg in query.select:
        scanned = raw_only or bool(
            stream.index_blocker(agg.attribute, agg.function)
        )
        key = (agg.attribute, scanned)
        keyed.append((agg, key))
        if key in sources:
            continue
        if scanned:
            if width is None and not raw_only:
                # Cold and expired ranges hold no raw values to fold.
                stream.tier_guard(t_start, t_end, raw=True)
            sources[key] = {}
        elif width is None:
            sources[key] = {
                None: stream.aggregate_accumulator(t_start, t_end,
                                                   agg.attribute, stats)
            }
        else:
            sources[key], bad = stream.grouped_components(
                t_start, t_end, agg.attribute, width, stats
            )
            poisoned |= bad
    names = [attribute for attribute, scanned in sources if scanned]
    if names:
        gathered = columnar.gather(stream, query, stats, t_start, t_end,
                                   width, names)
        selected = gathered[names[0]]  # every name has the same buckets
        if width is None and not selected:
            if raw_only and not components:
                raise QueryError("aggregate over empty result set")
            gathered = {name: {None: []} for name in names}
        elif width is not None and not raw_only:
            for bucket in selected:
                try:
                    stream.tier_guard(max(bucket, t_start),
                                      min(bucket + width - 1, t_end), raw=True)
                except QueryError:
                    poisoned.add(bucket)
        for name, buckets in gathered.items():
            sources[name, True] = buckets
    if width is None:
        bucket_starts = [None]
    else:
        bucket_starts = sorted(set().union(*sources.values()) - poisoned)
    rows = []
    for bucket in bucket_starts:
        row = {} if bucket is None else {"t_start": bucket,
                                         "t_end": bucket + width}
        try:
            for agg, key in keyed:
                source = sources[key][bucket]
                row[agg.label] = _render(agg, source, components)
                if components and bucket is not None and not key[1]:
                    # Finalizing decides whether the bucket survives in
                    # either format, so both drop exactly the same rows.
                    source.result(agg.function)
        except (KeyError, QueryError):
            if bucket is None:
                raise
            continue  # bucket empty for some aggregate, or squares lost
        rows.append(row)
    return rows[0] if width is None else rows[: query.limit]


def _render(agg, source, components: bool):
    """An accumulator or a value list, as a final or as wire components:
    a value list folds by the oracle's :func:`fold`."""
    if isinstance(source, list):
        if components:
            return components_of_values(source)
        return fold(agg.function, source)
    if components:
        return components_from_accumulator(source)
    return source.result(agg.function)
