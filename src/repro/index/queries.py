"""Query-side datatypes and accumulators for the TAB+-tree."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from repro.errors import QueryError

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

    def add_value(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.sum_squares += value * value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def add_values(self, values) -> None:
        """Vectorized :meth:`add_value` over a column slice.

        Folds a whole sequence with builtins (`sum`/`min`/`max`) instead
        of per-value Python bookkeeping — the columnar executor's inner
        loop for range-cutting flank leaves.
        """
        if not values:
            return
        self.count += len(values)
        self.total += sum(values)
        self.sum_squares += sum(v * v for v in values)
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
    check run the same arithmetic.  ``stdev`` is two-pass: the
    accumulator's sum-of-squares form cancels when |mean| >> sigma.
    """
    if not values:
        raise QueryError("aggregate over empty range")
    if function == "sum":
        return float(sum(values))
    if function == "count":
        return float(len(values))
    if function == "min":
        return float(min(values))
    if function == "max":
        return float(max(values))
    if function == "avg":
        return float(sum(values) / len(values))
    if function == "stdev":
        mean = sum(values) / len(values)
        return float(
            (sum((v - mean) ** 2 for v in values) / len(values)) ** 0.5
        )
    raise QueryError(f"unknown aggregate function {function!r}")
