"""The row-at-a-time reference executor (the planner's oracle).

This is the original executor, kept verbatim as the semantic baseline:
every plan the planner produces must return exactly what these
functions return (see ``tests/query/test_planner_equivalence``).  It
lives under :mod:`repro.testing` because nothing on a serving node runs
it — ``tests/test_import_boundary.py`` keeps it off ``import
repro.net.server``.

Access paths per query class (Section 5.6): ``SELECT *`` and filtered
aggregates read events through ``EventStream.time_travel`` (with the
query's ranges, which prune through Algorithm 2 when an attribute is
indexed); unfiltered aggregates use the TAB+-tree statistics through
``EventStream.aggregate``.  Both walk the stream's one read view (``EventStream._splits``), every
split's queued late events spliced in, and reach the leaves through the
one tree walk the planner's plans use, ``TabTree.leaf_slices``.  The
oracle is therefore the reference for executor semantics, not for the
walk: the walk is checked against list models
(``tests/core/test_read_view.py``, ``tests/index/test_leaf_walk.py``).
"""

from __future__ import annotations

from repro.errors import QueryError
from repro.index.queries import fold
from repro.query.ast import Query, SelectStar
from repro.query.columnar import MAX_BUCKETS
from repro.query.parser import parse
from repro.query.planner import validate


def execute_naive(db, sql: str):
    """Run *sql* row-at-a-time; the planner-free reference entry point."""
    query = parse(sql)
    stream = db.get_stream(query.stream)
    validate(stream, query)
    return run_naive(stream, query)


def run_naive(stream, query: Query):
    """Execute a validated query against one stream, row-at-a-time."""
    if isinstance(query.select, SelectStar):
        return _execute_select_star(stream, query)
    return _execute_aggregates(stream, query)


def _passes_strict(query: Query, stream, event) -> bool:
    for name, low, high, open_low, open_high in getattr(query, "strict_checks", []):
        value = event.values[stream.schema.index_of(name)]
        if open_low and not value > low:
            return False
        if open_high and not value < high:
            return False
    return True


def _execute_select_star(stream, query: Query):
    iterator = stream.time_travel(
        query.t_start, query.t_end, query.ranges or None
    )
    results = []
    for event in iterator:
        if not _passes_strict(query, stream, event):
            continue
        results.append(event)
        if query.limit is not None and len(results) >= query.limit:
            break
    return results


def _execute_aggregates(stream, query: Query):
    if query.group_by_time is not None:
        return _execute_grouped(stream, query)
    if query.ranges or getattr(query, "strict_checks", []):
        return _aggregate_with_filter(stream, query)
    return {
        agg.label: stream.aggregate(
            query.t_start, query.t_end, agg.attribute, agg.function
        )
        for agg in query.select
    }


def _execute_grouped(stream, query: Query):
    """``GROUP BY time(width)``: one aggregate row per time bucket.

    Buckets align to multiples of the width; empty buckets are omitted.
    Unfiltered groups run one logarithmic aggregation per bucket
    (constant time per bucket when buckets coincide with time splits,
    Section 5.4); filtered groups bucket the qualifying events.
    """
    width = query.group_by_time
    bounds = stream.time_bounds()
    if bounds is None:
        return []
    t_start = max(query.t_start, bounds[0])
    t_end = min(query.t_end, bounds[1])
    if t_end < t_start:
        return []
    first = (t_start // width) * width
    buckets = (t_end - first) // width + 1
    if buckets > MAX_BUCKETS:
        raise QueryError(
            f"GROUP BY time({width}) would produce {buckets} buckets"
        )
    rows = []
    filtered = bool(query.ranges or getattr(query, "strict_checks", []))
    if filtered:
        events = [
            e
            for e in stream.time_travel(t_start, t_end, query.ranges)
            if _passes_strict(query, stream, e)
        ]
        by_bucket: dict[int, list] = {}
        for event in events:
            by_bucket.setdefault((event.t // width) * width, []).append(event)
        for bucket_start in sorted(by_bucket):
            row = {"t_start": bucket_start, "t_end": bucket_start + width}
            bucket_events = by_bucket[bucket_start]
            for agg in query.select:
                position = stream.schema.index_of(agg.attribute)
                values = [e.values[position] for e in bucket_events]
                row[agg.label] = fold(agg.function, values)
            rows.append(row)
    else:
        for bucket_start in range(first, t_end + 1, width):
            row = {"t_start": bucket_start, "t_end": bucket_start + width}
            try:
                for agg in query.select:
                    row[agg.label] = stream.aggregate(
                        max(bucket_start, t_start),
                        min(bucket_start + width - 1, t_end),
                        agg.attribute,
                        agg.function,
                    )
            except QueryError:
                continue  # empty bucket
            rows.append(row)
    if query.limit is not None:
        rows = rows[: query.limit]
    return rows


def _aggregate_with_filter(stream, query: Query):
    """Aggregates over a filtered event set (no stored statistics apply)."""
    events = [
        e
        for e in stream.time_travel(query.t_start, query.t_end, query.ranges)
        if _passes_strict(query, stream, e)
    ]
    if not events:
        raise QueryError("aggregate over empty result set")
    out = {}
    for agg in query.select:
        position = stream.schema.index_of(agg.attribute)
        values = [e.values[position] for e in events]
        out[agg.label] = fold(agg.function, values)
    return out
