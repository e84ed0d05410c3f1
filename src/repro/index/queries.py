"""Query-side datatypes and accumulators for the TAB+-tree."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from repro.errors import QueryError
from repro.events.event import Event, pick
from repro.index.entry import ordered_sum, ordered_sums

#: Aggregation functions answerable from stored (min, max, sum, count)
#: statistics in logarithmic time (paper, Section 5.6.2).
FAST_AGGREGATES = ("sum", "count", "min", "max", "avg")
#: Aggregations that require scanning qualifying leaves — unless the
#: tree maintains extended (sum-of-squares) aggregates.
SCAN_AGGREGATES = ("stdev",)


@dataclass(frozen=True)
class AttributeRange:
    """A closed filter interval on one attribute (Algorithm 2 input)."""

    name: str
    low: float = -math.inf
    high: float = math.inf

    def __post_init__(self):
        if self.low > self.high:
            raise QueryError(f"empty range for {self.name}: [{self.low}, {self.high}]")

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high

    def overlaps(self, low: float, high: float) -> bool:
        """Does [low, high] intersect this range? (min/max pruning test)."""
        return not (high < self.low or low > self.high)


class AggregateAccumulator:
    """Combines entry statistics and raw values into one result."""

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.sum_squares = 0.0
        #: True while every contribution carried a sum of squares, so
        #: `stdev` may be answered from statistics.
        self.squares_exact = True

    def add_values(self, values) -> None:
        """Fold a column slice in at once (:func:`ordered_sums`, builtin
        `min`/`max`) — the columnar executor's inner loop for
        range-cutting flank leaves."""
        if not values:
            return
        total, squares = ordered_sums(values)
        self.count += len(values)
        self.total += total
        self.sum_squares += squares
        low = min(values)
        high = max(values)
        if low < self.minimum:
            self.minimum = low
        if high > self.maximum:
            self.maximum = high

    def add_summary(self, low: float, high: float, total: float, count: int,
                    sum_squares: float | None = None) -> None:
        self.count += count
        self.total += total
        if sum_squares is None:
            self.squares_exact = False
        else:
            self.sum_squares += sum_squares
        if low < self.minimum:
            self.minimum = low
        if high > self.maximum:
            self.maximum = high

    def add_entry(self, agg, count: int) -> None:
        """Add a stored aggregate tuple ``(min, max, sum[, sum_sq])`` of
        *count* values: an index entry's, a split summary's, a rollup
        row's.  Without the fourth slot the squares are not exact."""
        self.add_summary(agg[0], agg[1], agg[2], count,
                         agg[3] if len(agg) == 4 else None)

    def result(self, function: str) -> float:
        if self.count == 0:
            raise QueryError("aggregate over empty range")
        if function == "sum":
            return self.total
        if function == "count":
            return float(self.count)
        if function == "min":
            return self.minimum
        if function == "max":
            return self.maximum
        if function == "avg":
            return self.total / self.count
        if function == "stdev":
            if not self.squares_exact:
                raise QueryError(
                    "stdev needs extended aggregates or a leaf scan"
                )
            mean = self.total / self.count
            variance = max(0.0, self.sum_squares / self.count - mean * mean)
            return variance ** 0.5
        raise QueryError(f"unknown aggregate function {function!r}")


def add_bucketed(buckets: dict, timestamps, values, lo: int, hi: int,
                 width: int | None) -> None:
    """Fold rows ``[lo, hi)`` of a time-sorted column into ``{bucket_start:
    AggregateAccumulator}``, one slice per *width*-aligned bucket — one
    bucket, keyed None, without *width*."""
    while lo < hi:
        if width is None:
            bucket, stop = None, hi
        else:
            bucket = timestamps[lo] // width * width
            stop = bisect_right(timestamps, bucket + width - 1, lo, hi)
        acc = buckets.get(bucket)
        if acc is None:
            acc = buckets[bucket] = AggregateAccumulator()
        acc.add_values(values[lo:stop])
        lo = stop


def fold(function: str, values: list) -> float:
    """One aggregate over a list of raw values.

    The value-level counterpart of :meth:`AggregateAccumulator.result`,
    shared by every path that scans values instead of reading index
    statistics (and by the test oracle), so both sides of an equivalence
    check run the same arithmetic, in :func:`ordered_sum`'s order.
    ``stdev`` is two-pass: the accumulator's sum-of-squares form cancels
    when |mean| >> sigma.
    """
    if not values:
        raise QueryError("aggregate over empty range")
    if function == "sum":
        return float(ordered_sum(values))
    if function == "count":
        return float(len(values))
    if function == "min":
        return float(min(values))
    if function == "max":
        return float(max(values))
    if function == "avg":
        return float(ordered_sum(values) / len(values))
    if function == "stdev":
        mean = ordered_sum(values) / len(values)
        return float(
            (ordered_sum((v - mean) ** 2 for v in values) / len(values)) ** 0.5
        )
    raise QueryError(f"unknown aggregate function {function!r}")


def window_events(windows, schema, ranges, clock):
    """The rows of ``(leaf, lo, hi)`` read windows as :class:`Event`
    objects, in window order — with *ranges*, only the rows whose
    attributes fall in every range.

    Every read of events row by row ends here: a window's selected rows
    become events in one :meth:`Event.from_columns` pass, and each event
    yielded counts as one event deserialized on *clock*.  Range columns
    are read first, so a window none of whose rows pass decodes no other
    column.
    """
    checks = [(schema.index_of(r.name), r) for r in ranges or ()]
    positions = range(schema.arity)
    for leaf, lo, hi in windows:
        rows = range(lo, hi)
        for position, r in checks:
            column = leaf.column(position)
            rows = [row for row in rows if r.contains(column[row])]
        if not rows:
            continue
        columns = [pick(leaf.column(position), rows) for position in positions]
        for event in Event.from_columns(pick(leaf.timestamps, rows), columns):
            clock.events_deserialized += 1
            yield event
