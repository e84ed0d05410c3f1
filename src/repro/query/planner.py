"""The cost-based query planner (PR 8 tentpole).

Three access paths compete for every query:

``index_only``
    Answer aggregates purely from the TAB+-tree's lightweight index
    aggregates, sealed-split summaries and cold-rollup rows — leaves are
    decoded only where a range or bucket boundary cuts an index entry.
    Grouped queries run **one** descent per boundary split
    (:meth:`TabTree.grouped_components`) instead of the naive executor's
    one descent per bucket.

``columnar``
    Vectorized leaf scan (:mod:`repro.query.columnar`): batch-at-a-time
    column decoding with late materialization.  Chosen for filtered
    queries and for full ``SELECT *`` scans with no out-of-order events
    pending in the range.

``row``
    The naive oracle (:mod:`repro.query.naive`) — correct for every
    query, chosen whenever a vectorized plan would diverge from it
    (queued out-of-order events) or cannot apply (unindexed aggregate
    attributes, ``stdev`` without extended aggregates).

Plan choice is observable: ``ChronicleDB.explain(sql)`` renders the
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

from itertools import islice

from repro.errors import QueryError
from repro.index.queries import FAST_AGGREGATES, SCAN_AGGREGATES
from repro.obs import OBS
from repro.query import columnar, naive
from repro.query.ast import SelectStar
from repro.query.parser import parse
from repro.query.partials import components_from_accumulator
from repro.query.plan import COLUMNAR, INDEX_ONLY, ROW, Plan

_PLANS_INDEX_ONLY = OBS.counter("planner.plans_index_only")
_PLANS_COLUMNAR = OBS.counter("planner.plans_columnar")
_PLANS_ROW = OBS.counter("planner.plans_row")
_LEAVES_SCANNED = OBS.counter("planner.leaves_scanned")
_LEAVES_SKIPPED = OBS.counter("planner.leaves_skipped")
_VALUES_DECODED = OBS.counter("planner.values_decoded")
_ROWS_MATERIALIZED = OBS.counter("planner.rows_materialized")

_PLAN_COUNTERS = {
    INDEX_ONLY: _PLANS_INDEX_ONLY,
    COLUMNAR: _PLANS_COLUMNAR,
    ROW: _PLANS_ROW,
}


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
    naive.validate(stream, query)
    plan = build_plan(stream, query, served)
    return run_plan(stream, plan, materialize, components)


def explain(db, sql: str) -> dict:
    """The plan for *sql*, without executing it."""
    query = parse(sql)
    stream = db.get_stream(query.stream)
    naive.validate(stream, query)
    return build_plan(stream, query).explain()


# ------------------------------------------------------------------ planning


def _index_only_blocker(stream, query) -> str | None:
    """Why index-only aggregation cannot answer, or None if it can."""
    config = stream.config
    for agg in query.select:
        indexed = (
            config.indexed_attributes is None
            or agg.attribute in config.indexed_attributes
        )
        if not indexed:
            return f"attribute {agg.attribute!r} is not indexed"
        if agg.function in SCAN_AGGREGATES:
            if not config.extended_aggregates:
                return (
                    f"{agg.function} needs extended aggregates "
                    "(sum of squares is not tracked)"
                )
        elif agg.function not in FAST_AGGREGATES:
            return f"unknown aggregate function {agg.function!r}"
    return None


def _estimate_costs(stream, query, estimated_rows: int) -> dict:
    """Rough simulated-CPU estimates per candidate kind (explain only)."""
    cost = stream.config.cost_model
    if cost is None:
        return {}
    predicates = len(query.ranges) + len(getattr(query, "strict_checks", []))
    if isinstance(query.select, SelectStar):
        decoded_columns = predicates + stream.schema.arity
    else:
        decoded_columns = predicates + len(
            {agg.attribute for agg in query.select}
        )
    out = {
        "row": estimated_rows * cost.deserialize_event,
        "columnar": estimated_rows * cost.decode_value * decoded_columns,
    }
    unfiltered_aggs = not isinstance(query.select, SelectStar) and not predicates
    if unfiltered_aggs:
        width = query.group_by_time
        descents = 1 if width is None else max(
            1, min(estimated_rows, (query.t_end - query.t_start) // width + 1)
        )
        # One logarithmic descent per grouped bucket for the naive path,
        # one per split for the vectorized one.
        out["index_only"] = cost.node_visit * 4 * max(1, len(stream.splits))
        out["row"] = cost.node_visit * 4 * descents
    return out


def build_plan(stream, query, served=None) -> Plan:
    """Pick the cheapest access path that is exactly oracle-equivalent."""
    filtered = bool(query.ranges or getattr(query, "strict_checks", []))
    segments = stream.plan_segments(query.t_start, query.t_end)
    estimated_rows = stream.estimate_rows(query.t_start, query.t_end)
    costs = _estimate_costs(stream, query, estimated_rows)

    def plan(kind, reason, **extra):
        return Plan(
            kind, query, reason, segments=segments, served=served,
            estimated_rows=estimated_rows, estimated_cost=costs, **extra,
        )

    if isinstance(query.select, SelectStar):
        if filtered:
            return plan(
                COLUMNAR,
                "filtered scan: selection vectors over predicate columns, "
                "late materialization",
            )
        pending = stream.ooo_pending_in(query.t_start, query.t_end)
        if pending:
            return plan(
                ROW,
                f"{pending} out-of-order event(s) queued in range; "
                "leaf scans would miss them",
            )
        return plan(
            COLUMNAR,
            "full scan in time order; events materialize only at the "
            "API boundary",
            time_order=True,
        )
    if served is not None:
        return plan(
            COLUMNAR,
            "ownership predicate: index statistics still count the dead "
            "copies a split left behind, so owned rows are selected on the "
            "timestamp column",
        )
    blocker = _index_only_blocker(stream, query)
    if not filtered and blocker is None:
        return plan(
            INDEX_ONLY,
            "aggregates answered from index statistics; leaves touched "
            "only at range-cutting flanks",
        )
    if filtered:
        return plan(
            COLUMNAR,
            "filtered aggregate: decode predicate and aggregate columns "
            "only, never materialize events",
        )
    return plan(ROW, blocker)


# ----------------------------------------------------------------- execution


def run_plan(stream, plan: Plan, materialize: bool = True,
             components: bool = False):
    """Execute a built plan against one stream.

    Finals and components come from the same work: index accumulators
    either finalize or serialize, collected value lists either fold or
    accumulate.
    """
    query = plan.query
    if components and isinstance(query.select, SelectStar):
        raise QueryError("SELECT * has no partial-aggregate form")
    if OBS.enabled:
        _PLAN_COUNTERS[plan.kind].inc()
    grouped = query.group_by_time is not None
    if plan.kind == COLUMNAR:
        result = _run_columnar(stream, plan, materialize, components)
    elif components and not grouped:
        result = _accumulated(stream, query, query.t_start, query.t_end)
    elif plan.kind == ROW:
        result = _run_row(stream, plan, components)
    elif grouped:
        result = _index_only_grouped(stream, query, components)
    else:
        result = {
            agg.label: stream.aggregate(
                query.t_start, query.t_end, agg.attribute, agg.function
            )
            for agg in query.select
        }
    if components:
        return {"groups" if grouped else "aggregates": result}
    return result


def _run_columnar(stream, plan: Plan, materialize: bool, components: bool):
    query = plan.query
    stats: dict = {}
    try:
        if isinstance(query.select, SelectStar):
            batch = columnar.scan_events(
                stream, query, stats, plan.time_order, plan.served
            )
            return batch.materialize() if materialize else batch
        scan = (
            columnar.scan_aggregates
            if query.group_by_time is None
            else columnar.scan_grouped
        )
        return scan(stream, query, stats, plan.served, components)
    finally:
        plan.executed = stats
        if OBS.enabled:
            _LEAVES_SCANNED.inc(stats.get("leaves_scanned", 0))
            _LEAVES_SKIPPED.inc(stats.get("leaves_skipped", 0))
            _VALUES_DECODED.inc(stats.get("values_decoded", 0))
            _ROWS_MATERIALIZED.inc(stats.get("rows_materialized", 0))


def _accumulated(stream, query, t_start: int, t_end: int) -> dict:
    """Components per select over ``[t_start, t_end]``: index statistics
    where they apply, else :meth:`EventStream.aggregate_accumulator`'s
    scan fallback (the cases :func:`_index_only_blocker` names)."""
    return {
        agg.label: components_from_accumulator(
            stream.aggregate_accumulator(
                t_start, t_end, agg.attribute,
                need_squares=agg.function in SCAN_AGGREGATES,
            )
        )
        for agg in query.select
    }


def _run_row(stream, plan: Plan, components: bool):
    """The oracle itself for finals; for what it has no notion of — an
    ownership predicate, grouped components — the same scans it runs."""
    query = plan.query
    if plan.served is not None:
        # Only an unfiltered SELECT * plans ROW under a predicate: the
        # oracle's time-travel scan, filtered ahead of LIMIT.
        owned = (
            event
            for event in stream.time_travel(query.t_start, query.t_end)
            if plan.served(event.t)
        )
        return list(islice(owned, query.limit))
    if not components:
        return naive.run_naive(stream, query)
    window = columnar.bucket_window(stream, query)
    if window is None:
        return []
    t_start, t_end = window
    width = query.group_by_time
    rows = []
    for bucket_start in range((t_start // width) * width, t_end + 1, width):
        try:
            row = _accumulated(
                stream, query, max(bucket_start, t_start),
                min(bucket_start + width - 1, t_end),
            )
        except QueryError:
            continue  # needs raw events a tier no longer holds
        if all(part["count"] for part in row.values()):
            rows.append(
                {"t_start": bucket_start, "t_end": bucket_start + width, **row}
            )
    return rows[: query.limit]


def _index_only_grouped(stream, query, components: bool):
    """``GROUP BY time``: one grouped descent per split, not per bucket.

    Matches the naive executor bucket for bucket in either output
    format: clamped to the raw time bounds, empty buckets omitted, and
    buckets a tier cannot answer at full resolution (cut rollup rows,
    expired history) dropped the way the oracle's per-bucket
    ``QueryError`` handling drops them.
    """
    window = columnar.bucket_window(stream, query)
    if window is None:
        return []
    t_start, t_end = window
    width = query.group_by_time
    per_attr: dict[str, dict] = {}
    poisoned: set[int] = set()
    for attribute in dict.fromkeys(agg.attribute for agg in query.select):
        per_attr[attribute], bad = stream.grouped_components(
            t_start, t_end, attribute, width
        )
        poisoned |= bad
    keys: set[int] = set()
    for buckets in per_attr.values():
        keys.update(buckets)
    rows = []
    for bucket_start in sorted(keys - poisoned):
        row = {"t_start": bucket_start, "t_end": bucket_start + width}
        try:
            for agg in query.select:
                acc = per_attr[agg.attribute][bucket_start]
                # Finalizing decides whether the bucket survives in
                # either format, so both drop exactly the same rows.
                value = acc.result(agg.function)
                row[agg.label] = (
                    components_from_accumulator(acc) if components else value
                )
        except (KeyError, QueryError):
            continue  # bucket empty for some attribute, or squares lost
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
