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
  ``SELECT *``.  Aggregates never materialize events at all: every
  aggregate the index statistics cannot answer gets its values from
  one :func:`gather` pass, whatever the number of scanned attributes.

The unfiltered ``SELECT *`` scan is also the one read by which events
leave a server: :func:`read_events` runs it without a plan for catch-up
replies and subscription pushes (on a split stream a push runs it once
per owned time slice, as a plan), and its
:class:`~repro.events.event.ColumnarEvents` batch goes onto the wire as
is.

Results are bit-identical to the row-at-a-time oracle
(``repro.testing.oracle``) by construction: both read the same leaf
windows (:meth:`EventStream.leaf_slices` — time order, each split's
queued late events spliced in as one more leaf), selections preserve
row order, and the collected value lists are folded by the
:func:`~repro.index.queries.fold` the oracle uses.
"""

from __future__ import annotations

from array import array

from repro.errors import QueryError
from repro.events.event import ColumnarEvents, pick
from repro.query.ast import Query, SelectStar

#: Most buckets one ``GROUP BY time`` may span.
MAX_BUCKETS = 100_000


def _selection(stream, query, leaf, lo, hi):
    """Qualifying row indices in ``[lo, hi)`` of one leaf.

    Applies the closed attribute ranges, then the strict (``<``/``>``)
    residues, narrowing the selection vector predicate by predicate.
    Returns ``(rows, examined)`` where *examined* counts the column
    values actually compared (counted as values decoded on the clock).
    """
    schema = stream.schema
    rows = None
    examined = 0
    for attr_range in query.ranges:
        column = leaf.column(schema.index_of(attr_range.name))
        low, high = attr_range.low, attr_range.high
        if rows is None:
            examined += hi - lo
            rows = [
                i for i, value in enumerate(column[lo:hi], lo)
                if low <= value <= high
            ]
        else:
            examined += len(rows)
            rows = [i for i in rows if low <= column[i] <= high]
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
    if rows is None:
        rows = range(lo, hi)
    return rows, examined


def empty_batch(schema) -> ColumnarEvents:
    """An empty batch of the schema's typed column arrays, which a
    window of a leaf's columns extends by one ``memcpy``."""
    return ColumnarEvents(array("q"), [
        array(field.kind.struct_char) for field in schema.fields
    ])


def scan_events(stream, query, stats: dict):
    """``SELECT *`` through the columnar path.

    Qualifying rows accumulate column-wise, into arrays of the schema's
    typecodes, and come back as one :class:`ColumnarEvents` batch: a
    window of a leaf's typed columns is one ``memcpy`` into it, and the
    wire encoder copies it out with ``tobytes``.  The caller turns it
    into :class:`Event` objects (or wire columns) at the API boundary —
    the only point that pays per-row deserialization.  ``LIMIT`` counts
    selected rows.
    """
    out = empty_batch(stream.schema)
    limit = query.limit
    examined = 0
    for leaf, lo, hi in stream.leaf_slices(
        query.t_start, query.t_end, query.ranges or None, stats
    ):
        rows, checked = _selection(stream, query, leaf, lo, hi)
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


def read_events(stream, t_start: int, t_end: int,
                limit: int | None = None) -> ColumnarEvents:
    """The one read of events out of a node: what an unfiltered
    ``SELECT *`` plan runs (:func:`scan_events`), without building a
    plan.  Catch-up replies and subscription pushes are this batch."""
    query = Query(SelectStar(), stream.name, t_start, t_end, limit=limit)
    return scan_events(stream, query, {})


def gather(stream, query, stats: dict, t_start: int, t_end: int,
           width: int | None, names) -> dict:
    """Per-attribute, per-bucket value lists of the selected rows: one
    pass over the leaf windows, decoding the predicate columns and the
    columns of *names* only.

    Returns ``{name: {bucket_start: values}}`` — one bucket keyed None
    without *width* — with every list in the oracle's scan order, so a
    single ``fold`` per aggregate reproduces its arithmetic exactly.
    """
    columns = {name: (stream.schema.index_of(name), {}) for name in names}
    examined = 0
    for leaf, lo, hi in stream.leaf_slices(
        t_start, t_end, query.ranges or None, stats
    ):
        rows, checked = _selection(stream, query, leaf, lo, hi)
        examined += checked
        if not rows:
            continue
        members = {None: rows}
        if width is not None:
            members, timestamps = {}, leaf.timestamps
            for i in rows:
                members.setdefault(timestamps[i] // width * width, []).append(i)
        for position, buckets in columns.values():
            column = leaf.column(position)
            for bucket, picked in members.items():
                values = buckets.get(bucket)
                if values is None:
                    values = buckets[bucket] = []
                values.extend(pick(column, picked))
    stream.devices.clock.values_decoded += examined
    return {name: buckets for name, (_, buckets) in columns.items()}


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
