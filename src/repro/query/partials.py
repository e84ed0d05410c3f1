"""Partial aggregates: the component format and its merge algebra.

A cluster-level aggregate must not ship events: each shard runs its plan
in components mode (:func:`repro.query.planner.execute`) and answers
with the *components* of the aggregate — ``(min, max, sum, count,
sum_squares)`` — which the router re-aggregates.  The algebra is exactly
:class:`~repro.index.queries.AggregateAccumulator`: components merge by
``add_summary`` and finalize by ``result``, so a merged cluster answer is
identical to a single-node run over the union of the data.  Nothing
here touches a stream; this module only converts, merges and finalizes.
"""

from __future__ import annotations

from repro.index.queries import AggregateAccumulator


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
    acc.add_values(values)  # sum(values), as ``fold`` adds the finals
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


def merge_partials(partials: list[dict], query) -> dict:
    """Merge the shards' components-mode outputs for *query* into one."""
    if query.group_by_time is not None:
        labels = [agg.label for agg in query.select]
        rows = merge_partial_groups([p["groups"] for p in partials], labels)
        return {"groups": rows}
    return {
        "aggregates": {
            agg.label: merge_components(
                [p["aggregates"][agg.label] for p in partials]
            )
            for agg in query.select
        }
    }


def finalize_result(partial: dict, query):
    """Components-mode output (one shard's, or a merge) → the finals a
    single node returns: a dict of values, or ``LIMIT``-ed bucket rows."""
    if "aggregates" in partial:
        return {
            agg.label: finalize(partial["aggregates"][agg.label], agg.function)
            for agg in query.select
        }
    rows = []
    for bucket in partial["groups"][: query.limit]:
        row = {"t_start": bucket["t_start"], "t_end": bucket["t_end"]}
        for agg in query.select:
            row[agg.label] = finalize(bucket[agg.label], agg.function)
        rows.append(row)
    return rows
