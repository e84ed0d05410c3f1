"""Partial aggregates: shard-local components and their merge algebra.

A cluster-level aggregate must not ship events: each shard answers from
its TAB+-tree statistics with the *components* of the aggregate —
``(min, max, sum, count, sum_squares)`` — and the router re-aggregates
them.  The algebra is exactly
:class:`~repro.index.queries.AggregateAccumulator`: components merge by
``add_summary`` and finalize by ``result``, so a merged cluster answer is
identical to a single-node run over the union of the data.
"""

from __future__ import annotations

from repro.errors import QueryError
from repro.index.queries import SCAN_AGGREGATES, AggregateAccumulator
from repro.query.ast import SelectStar
from repro.query.parser import parse

#: Wire keys of one component set.
_KEYS = ("min", "max", "sum", "count", "sum_squares")


def components_from_accumulator(acc: AggregateAccumulator) -> dict:
    return {
        "min": acc.minimum if acc.count else None,
        "max": acc.maximum if acc.count else None,
        "sum": acc.total,
        "count": acc.count,
        "sum_squares": acc.sum_squares if acc.squares_exact else None,
    }


def components_of_values(values) -> dict:
    acc = AggregateAccumulator()
    for value in values:
        acc.add_value(value)
    return components_from_accumulator(acc)


def merge_components(parts: list[dict]) -> dict:
    """Fold shard component sets into one (associative, order-free)."""
    acc = AggregateAccumulator()
    for part in parts:
        if part["count"] == 0:
            continue
        acc.add_summary(
            part["min"], part["max"], part["sum"], part["count"],
            part["sum_squares"],
        )
    return components_from_accumulator(acc)


def finalize(components: dict, function: str) -> float:
    """The aggregate value a single node would have computed."""
    acc = AggregateAccumulator()
    if components["count"]:
        acc.add_summary(
            components["min"], components["max"], components["sum"],
            components["count"], components["sum_squares"],
        )
    return acc.result(function)


def _accumulate_events(stream, query, events) -> dict:
    out = {}
    for agg in query.select:
        position = stream.schema.index_of(agg.attribute)
        out[agg.label] = components_of_values(
            [e.values[position] for e in events]
        )
    return out


def execute_partials(db, query, served=None):
    """Run an aggregate query (SQL text or already parsed), returning
    components instead of finals.

    Plain aggregates answer index-only from the TAB+-tree statistics
    (same access path as :meth:`EventStream.aggregate`); filtered and
    grouped aggregates compute components from the qualifying events.
    Returns ``{"aggregates": {label: components}}`` or
    ``{"groups": [{"t_start", "t_end", label: components, ...}]}``.

    ``served``, when given, is a ``t -> bool`` ownership predicate: a
    split's source shard retains dead copies of ranges it handed off,
    and the serving node passes the predicate so those events are
    excluded.  Any predicate forces the event-fold path (the index
    statistics can't see ownership), so nodes only pass one for
    assignment-affected streams.
    """
    from repro.query.executor import _passes_strict

    if isinstance(query, str):
        query = parse(query)
    stream = db.get_stream(query.stream)
    if isinstance(query.select, SelectStar):
        raise QueryError("SELECT * has no partial-aggregate form")
    for agg in query.select:
        if agg.attribute not in stream.schema:
            raise QueryError(f"unknown attribute {agg.attribute!r}")
    for attr_range in query.ranges:
        if attr_range.name not in stream.schema:
            raise QueryError(f"unknown attribute {attr_range.name!r}")
    filtered = (
        bool(query.ranges or getattr(query, "strict_checks", []))
        or served is not None
    )

    if query.group_by_time is not None:
        return {"groups": _grouped_partials(stream, query, filtered, served)}

    if filtered:
        events = [
            e
            for e in stream.filter(query.t_start, query.t_end, query.ranges)
            if _passes_strict(query, stream, e)
            and (served is None or served(e.t))
        ]
        return {"aggregates": _accumulate_events(stream, query, events)}

    out = {}
    for agg in query.select:
        acc = stream.aggregate_accumulator(
            query.t_start, query.t_end, agg.attribute,
            need_squares=agg.function in SCAN_AGGREGATES,
        )
        out[agg.label] = components_from_accumulator(acc)
    return {"aggregates": out}


def _grouped_partials(stream, query, filtered: bool, served=None) -> list[dict]:
    from repro.query.executor import _MAX_BUCKETS, _passes_strict

    width = query.group_by_time
    bounds = stream.time_bounds()
    if bounds is None:
        return []
    t_start = max(query.t_start, bounds[0])
    t_end = min(query.t_end, bounds[1])
    if t_end < t_start:
        return []
    first = (t_start // width) * width
    if (t_end - first) // width + 1 > _MAX_BUCKETS:
        raise QueryError(f"GROUP BY time({width}) would produce too many buckets")
    if not filtered:
        if _vectorizable(stream, query):
            return _grouped_partials_vectorized(
                stream, query, t_start, t_end, width
            )
        # Scan fallback (unindexed attribute, or squares needed without
        # extended aggregates): one accumulator per (bucket, attribute),
        # skipping buckets with no events — mirrors the single-node path.
        rows = []
        for bucket_start in range(first, t_end + 1, width):
            components = {}
            for agg in query.select:
                acc = stream.aggregate_accumulator(
                    max(bucket_start, t_start),
                    min(bucket_start + width - 1, t_end),
                    agg.attribute,
                    need_squares=agg.function in SCAN_AGGREGATES,
                )
                if acc.count == 0:
                    components = None
                    break
                components[agg.label] = components_from_accumulator(acc)
            if components is None:
                continue
            row = {"t_start": bucket_start, "t_end": bucket_start + width}
            row.update(components)
            rows.append(row)
        return rows
    events = [
        e
        for e in stream.filter(t_start, t_end, query.ranges)
        if _passes_strict(query, stream, e)
        and (served is None or served(e.t))
    ]
    by_bucket: dict[int, list] = {}
    for event in events:
        by_bucket.setdefault((event.t // width) * width, []).append(event)
    rows = []
    for bucket_start in sorted(by_bucket):
        row = {"t_start": bucket_start, "t_end": bucket_start + width}
        row.update(
            _accumulate_events(stream, query, by_bucket[bucket_start])
        )
        rows.append(row)
    return rows


def _vectorizable(stream, query) -> bool:
    """Can every select run index-only (no per-bucket scan fallback)?"""
    config = stream.config
    for agg in query.select:
        if (
            config.indexed_attributes is not None
            and agg.attribute not in config.indexed_attributes
        ):
            return False
        if agg.function in SCAN_AGGREGATES and not config.extended_aggregates:
            return False
    return True


def _grouped_partials_vectorized(stream, query, t_start, t_end, width):
    """One grouped descent per split instead of one per bucket.

    The shard-local half of the plan-aware scatter: identical rows to
    the per-bucket loop, computed with
    :meth:`EventStream.grouped_components`.  Buckets a tier cannot
    answer at full resolution raise, exactly as the per-bucket
    accumulators would have.
    """
    per_attr: dict[str, dict] = {}
    poisoned: set[int] = set()
    for attribute in dict.fromkeys(agg.attribute for agg in query.select):
        components, bad = stream.grouped_components(
            t_start, t_end, attribute, width
        )
        per_attr[attribute] = components
        poisoned |= bad
    if poisoned:
        raise QueryError(
            f"range [{t_start}, {t_end}] needs sub-bucket history around "
            f"bucket {min(poisoned)}; only coarser aggregates remain"
        )
    keys: set[int] = set()
    for components in per_attr.values():
        keys.update(components)
    rows = []
    for bucket_start in sorted(keys):
        row = {"t_start": bucket_start, "t_end": bucket_start + width}
        complete = True
        for agg in query.select:
            acc = per_attr[agg.attribute].get(bucket_start)
            if acc is None or acc.count == 0:
                complete = False
                break
            row[agg.label] = components_from_accumulator(acc)
        if complete:
            rows.append(row)
    return rows


def merge_partial_groups(shard_rows: list[list[dict]], labels: list[str]) -> list[dict]:
    """Merge per-shard ``GROUP BY time`` partial rows by bucket."""
    merged: dict[int, dict] = {}
    for rows in shard_rows:
        for row in rows:
            bucket = merged.setdefault(
                row["t_start"],
                {"t_start": row["t_start"], "t_end": row["t_end"]},
            )
            for label in labels:
                if label in bucket:
                    bucket[label] = merge_components(
                        [bucket[label], row[label]]
                    )
                else:
                    bucket[label] = row[label]
    return [merged[key] for key in sorted(merged)]


def is_mergeable(function: str, components: dict) -> bool:
    """Can *function* be finalized from these merged components?"""
    if function == "stdev":
        return components["sum_squares"] is not None
    return True
