"""Vectorized (batch-at-a-time) executors over L-block columns.

The PAX layout of an L-block (timestamps first, then each attribute
contiguous) lets a scan decode one column at a time.  These executors
exploit that with *late materialization*:

* per leaf, only the columns named by predicates are decoded to build a
  selection vector of qualifying row indices;
* only the columns the query projects or aggregates are then gathered
  through that selection;
* :class:`~repro.events.event.Event` objects are built — and counted
  as events deserialized — only at the API boundary, and only for
  ``SELECT *``.  Aggregates never materialize events at all.

The unfiltered ``SELECT *`` scan is also the one read by which events
leave a server: :func:`read_events` runs it without a plan for catch-up
replies and subscription pushes, and its
:class:`~repro.events.event.ColumnarEvents` batch goes onto the wire as
is.

Results are bit-identical to the row-at-a-time oracle
(``repro.testing.oracle``) by construction: leaves arrive in the order
of its scans (:meth:`EventStream.leaf_slices` — time order, each split's
queued late events spliced in as one more leaf), selections preserve
row order, and the collected value lists are folded by the
:func:`~repro.index.queries.fold` the oracle uses.
"""

from __future__ import annotations

from repro.errors import QueryError
from repro.events.event import ColumnarEvents
from repro.index.queries import fold
from repro.query.ast import Query, SelectStar
from repro.query.partials import components_of_values

#: Most buckets one ``GROUP BY time`` may span.
MAX_BUCKETS = 100_000


def _selection(stream, query, leaf, lo, hi, served=None):
    """Qualifying row indices in ``[lo, hi)`` of one leaf.

    Applies the closed attribute ranges, then the strict (``<``/``>``)
    residues, then the ownership predicate *served* on the timestamp
    column, narrowing the selection vector predicate by predicate.
    Returns ``(rows, examined)`` where *examined* counts the column
    values actually compared (counted as values decoded on the clock).
    """
    schema = stream.schema
    rows = None
    examined = 0
    for attr_range in query.ranges:
        column = leaf.column(schema.index_of(attr_range.name))
        low, high = attr_range.low, attr_range.high
        source = range(lo, hi) if rows is None else rows
        examined += len(source)
        rows = [i for i in source if low <= column[i] <= high]
        if not rows:
            return rows, examined
    for name, low, high, open_low, open_high in getattr(
        query, "strict_checks", []
    ):
        column = leaf.column(schema.index_of(name))
        source = range(lo, hi) if rows is None else rows
        examined += len(source)
        kept = []
        for i in source:
            value = column[i]
            if open_low and not value > low:
                continue
            if open_high and not value < high:
                continue
            kept.append(i)
        rows = kept
        if not rows:
            return rows, examined
    if served is not None:
        timestamps = leaf.timestamps
        source = range(lo, hi) if rows is None else rows
        examined += len(source)
        rows = [i for i in source if served(timestamps[i])]
    elif rows is None:
        rows = list(range(lo, hi))
    return rows, examined


def scan_events(stream, query, stats: dict, served=None):
    """``SELECT *`` through the columnar path.

    Qualifying rows accumulate column-wise and come back as one
    :class:`ColumnarEvents` batch; the caller turns it into
    :class:`Event` objects (or wire columns) at the API boundary — the
    only point that pays per-row deserialization.  ``LIMIT`` counts
    selected rows, so it applies after the *served* predicate.
    """
    out = ColumnarEvents.empty(stream.schema.arity)
    limit = query.limit
    examined = 0
    for leaf, lo, hi in stream.leaf_slices(
        query.t_start, query.t_end, query.ranges or None, stats
    ):
        rows, checked = _selection(stream, query, leaf, lo, hi, served)
        examined += checked
        if not rows:
            continue
        columns = [
            leaf.column(position)
            for position in range(stream.schema.arity)
        ]
        out.append_rows(leaf.timestamps, columns, rows)
        if limit is not None and len(out) >= limit:
            break
    if limit is not None and len(out) > limit:
        out = out[:limit]
    stats["rows_materialized"] = stats.get("rows_materialized", 0) + len(out)
    clock = stream.devices.clock
    clock.values_decoded += examined
    clock.events_deserialized += len(out)
    return out


def read_events(stream, t_start: int, t_end: int, served=None,
                limit: int | None = None) -> ColumnarEvents:
    """The one read of events out of a node: what an unfiltered
    ``SELECT *`` plan runs (:func:`scan_events`), without building a
    plan.  Catch-up replies and subscription pushes are this batch."""
    query = Query(SelectStar(), stream.name, t_start, t_end, limit=limit)
    return scan_events(stream, query, {}, served)


def _gather(stream, query, stats: dict, served, t_start: int, t_end: int,
            width: int | None = None) -> dict:
    """Per-bucket, per-attribute value lists of the selected rows.

    Returns ``{bucket_start: {name: values}}`` — one bucket keyed None
    without *width* — with every list in the oracle's scan order, so a
    single ``fold`` per aggregate reproduces its arithmetic exactly.
    """
    schema = stream.schema
    positions = {
        agg.attribute: schema.index_of(agg.attribute) for agg in query.select
    }
    by_bucket: dict = {}
    examined = 0
    for leaf, lo, hi in stream.leaf_slices(
        t_start, t_end, query.ranges or None, stats
    ):
        rows, checked = _selection(stream, query, leaf, lo, hi, served)
        examined += checked
        if not rows:
            continue
        members = {None: rows}
        if width is not None:
            members, timestamps = {}, leaf.timestamps
            for i in rows:
                members.setdefault(timestamps[i] // width * width, []).append(i)
        for name, position in positions.items():
            column = leaf.column(position)
            for bucket, picked in members.items():
                slot = by_bucket.get(bucket)
                if slot is None:
                    slot = by_bucket[bucket] = {name: [] for name in positions}
                slot[name].extend(column[i] for i in picked)
    stream.devices.clock.values_decoded += examined
    return by_bucket


def render(agg, values: list, components: bool):
    """One aggregate over its collected values: the oracle's fold, or
    the mergeable components of the same values."""
    if components:
        return components_of_values(values)
    return fold(agg.function, values)


def scan_aggregates(stream, query, stats: dict, served=None,
                    components: bool = False):
    """Filtered, ungrouped aggregates without event materialization."""
    values = _gather(
        stream, query, stats, served, query.t_start, query.t_end
    ).get(None)
    if values is None:
        if not components:
            raise QueryError("aggregate over empty result set")
        values = {agg.attribute: [] for agg in query.select}
    return {
        agg.label: render(agg, values[agg.attribute], components)
        for agg in query.select
    }


def bucket_window(stream, query):
    """``GROUP BY time``'s range clamped to the raw time bounds, as
    ``(t_start, t_end)`` — ``None`` when no raw event can fall in it."""
    width = query.group_by_time
    bounds = stream.time_bounds()
    if bounds is None:
        return None
    t_start = max(query.t_start, bounds[0])
    t_end = min(query.t_end, bounds[1])
    if t_end < t_start:
        return None
    buckets = (t_end - (t_start // width) * width) // width + 1
    if buckets > MAX_BUCKETS:
        raise QueryError(
            f"GROUP BY time({width}) would produce {buckets} buckets"
        )
    return t_start, t_end


def scan_grouped(stream, query, stats: dict, served=None,
                 components: bool = False):
    """Filtered ``GROUP BY time(width)`` through the columnar path."""
    window = bucket_window(stream, query)
    if window is None:
        return []
    width = query.group_by_time
    by_bucket = _gather(stream, query, stats, served, *window, width)
    out = []
    for bucket_start in sorted(by_bucket):
        row = {"t_start": bucket_start, "t_end": bucket_start + width}
        slot = by_bucket[bucket_start]
        for agg in query.select:
            row[agg.label] = render(agg, slot[agg.attribute], components)
        out.append(row)
    return out[: query.limit]
