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
    aggregates): those fold the one named column.

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
arguments: *served* (a ``t -> bool`` ownership predicate, one more
selection on the timestamp column) and *components* (aggregates leave
as mergeable :mod:`~repro.query.partials` components, not finals).
"""

from __future__ import annotations

from repro.errors import QueryError
from repro.obs import OBS
from repro.query import columnar
from repro.query.ast import Query, SelectStar
from repro.query.parser import parse
from repro.query.partials import components_from_accumulator
from repro.query.plan import COLUMNAR, INDEX_ONLY, Plan

_PLAN_COUNTERS = {
    INDEX_ONLY: OBS.counter("planner.plans_index_only"),
    COLUMNAR: OBS.counter("planner.plans_columnar"),
}
_LEAVES_SCANNED = OBS.counter("planner.leaves_scanned")
_LEAVES_SKIPPED = OBS.counter("planner.leaves_skipped")
_VALUES_DECODED = OBS.counter("planner.values_decoded")
_ROWS_MATERIALIZED = OBS.counter("planner.rows_materialized")


def execute(db, query, materialize: bool = True, served=None,
            components: bool = False):
    """Plan and run *query* — the engine-wide query entry point.

    *query* is SQL text or an already-parsed query (the server parses
    once, outside the stream lock, and hands the result through).  With
    ``materialize=False`` a columnar ``SELECT *`` comes back as the
    :class:`~repro.events.event.ColumnarEvents` batch the scan built,
    for callers that encode columns straight onto the wire.

    *served*, when given, is a ``t -> bool`` ownership predicate: a
    split's source shard retains dead copies of ranges it handed off,
    and the serving node passes the predicate so those events are
    excluded (before ``LIMIT``).  With *components* an aggregate query
    returns ``{"aggregates": {label: components}}`` or ``{"groups":
    [{"t_start", "t_end", label: components, ...}]}`` — what a shard
    ships for the router to merge
    (:func:`repro.query.partials.finalize_result` turns either back into
    finals).
    """
    if isinstance(query, str):
        query = parse(query)
    stream = db.get_stream(query.stream)
    validate(stream, query)
    plan = build_plan(stream, query, served)
    return run_plan(stream, plan, materialize, components)


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


def build_plan(stream, query, served=None) -> Plan:
    """Pick the cheapest access path that is exactly oracle-equivalent."""
    filtered = _filtered(query)
    segments = stream.plan_segments(query.t_start, query.t_end)
    estimated_rows = stream.estimate_rows(query.t_start, query.t_end)
    costs = _estimate_costs(stream, query, estimated_rows)

    def plan(kind, reason):
        return Plan(
            kind, query, reason, segments=segments, served=served,
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
    if served is not None:
        return plan(
            COLUMNAR,
            "ownership predicate: index statistics still count the dead "
            "copies a split left behind, so owned rows are selected on the "
            "timestamp column",
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
    grouped = query.group_by_time is not None
    stats: dict = {}
    try:
        if select_star:
            batch = columnar.scan_events(stream, query, stats, plan.served)
            return batch.materialize() if materialize else batch
        if _filtered(query) or plan.served is not None:
            scan = columnar.scan_grouped if grouped else columnar.scan_aggregates
            result = scan(stream, query, stats, plan.served, components)
        elif grouped:
            result = _grouped_unfiltered(stream, query, stats, components)
        else:
            result = {
                agg.label: _render(
                    agg, _unfiltered(stream, agg, query.t_start, query.t_end, stats),
                    components,
                )
                for agg in query.select
            }
    finally:
        plan.executed = stats
        if OBS.enabled:
            _LEAVES_SCANNED.inc(stats.get("leaves_scanned", 0))
            _LEAVES_SKIPPED.inc(stats.get("leaves_skipped", 0))
            _VALUES_DECODED.inc(stats.get("values_decoded", 0))
            _ROWS_MATERIALIZED.inc(stats.get("rows_materialized", 0))
    if components:
        return {"groups" if grouped else "aggregates": result}
    return result


def _unfiltered(stream, agg, t_start: int, t_end: int, stats: dict):
    """What one unfiltered aggregate is computed from: the index
    accumulator or, where :meth:`EventStream.index_blocker` names a
    reason, the scanned values of its column — the choice
    :meth:`EventStream.aggregate` makes, with scan counters."""
    if stream.index_blocker(agg.attribute, agg.function):
        return stream.scan_values(t_start, t_end, agg.attribute, stats)
    return stream.aggregate_accumulator(t_start, t_end, agg.attribute)


def _render(agg, source, components: bool):
    """An accumulator or a value list, as a final or as wire components."""
    if isinstance(source, list):
        return columnar.render(agg, source, components)
    if components:
        return components_from_accumulator(source)
    return source.result(agg.function)


def _grouped_unfiltered(stream, query, stats: dict, components: bool):
    """Unfiltered ``GROUP BY time``: one grouped descent per split, one
    column pass per scanned attribute — never one read per bucket.

    Matches the oracle bucket for bucket in either output format:
    clamped to the raw time bounds, empty buckets omitted, and buckets a
    tier cannot answer at full resolution (cut rollup rows, expired
    history, raw values rolled up) dropped the way the oracle's
    per-bucket ``QueryError`` handling drops them.
    """
    window = columnar.bucket_window(stream, query)
    if window is None:
        return []
    t_start, t_end = window
    width = query.group_by_time
    keyed = [
        (agg, (agg.attribute,
               bool(stream.index_blocker(agg.attribute, agg.function))))
        for agg in query.select
    ]
    sources: dict[tuple, dict] = {}
    poisoned: set[int] = set()
    for key in dict.fromkeys(key for _, key in keyed):
        attribute, scanned = key
        if scanned:
            sources[key], bad = stream.grouped_values(
                t_start, t_end, attribute, width, stats
            )
        else:
            sources[key], bad = stream.grouped_components(
                t_start, t_end, attribute, width
            )
        poisoned |= bad
    buckets = set().union(*sources.values())
    rows = []
    for bucket_start in sorted(buckets - poisoned):
        row = {"t_start": bucket_start, "t_end": bucket_start + width}
        try:
            for agg, key in keyed:
                source = sources[key][bucket_start]
                row[agg.label] = _render(agg, source, components)
                if components and not key[1]:
                    # Finalizing decides whether the bucket survives in
                    # either format, so both drop exactly the same rows.
                    source.result(agg.function)
        except (KeyError, QueryError):
            continue  # bucket empty for some aggregate, or squares lost
        rows.append(row)
    return rows[: query.limit]


# ------------------------------------------------------------------- cluster


def plan_scatter(query) -> dict:
    """How the cluster router should fan a parsed query out.

    Shards always execute *plans* locally (their ``query`` op is one
    :func:`execute` call, in components mode for a ``partials``
    request); the router's remaining decision is what to ship back:
    merged partial-aggregate components wherever the algebra allows,
    raw events only for ``SELECT *``.
    """
    if isinstance(query.select, SelectStar):
        return {
            "mode": "events",
            "reason": "SELECT * has no partial-aggregate form",
        }
    return {
        "mode": "partials",
        "reason": "shards run their own plan and ship components, "
        "not events",
    }
