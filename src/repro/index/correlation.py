"""Temporal correlation (paper, Section 5.1).

For a value sequence A = a1..aN the average distance is the arithmetic
mean of consecutive Manhattan distances, and the temporal correlation is

    tc(A) = 1 - dist(A) / (max(A) - min(A))

tc lies in the unit interval; values close to 1 mean consecutive values
are similar, which is what makes the TAB+-tree's min/max lightweight
indexing selective.  ChronicleDB computes tc per attribute and time split
to decide which secondary indexes are worth maintaining (Section 5.4).
"""

from __future__ import annotations

import numpy as np

from repro.errors import QueryError


def average_distance(values) -> float:
    """``dist(A)``: mean absolute difference of consecutive values."""
    array = np.asarray(values, dtype=np.float64)
    if array.ndim != 1 or array.size < 2:
        raise QueryError("average distance needs a 1-D sequence of length >= 2")
    return float(np.mean(np.abs(np.diff(array))))


def temporal_correlation(values) -> float:
    """``tc(A)``: 1 minus the average distance normalized by the value range.

    A constant sequence has zero range; it is perfectly predictable, so
    its correlation is defined as 1.
    """
    array = np.asarray(values, dtype=np.float64)
    if array.ndim != 1 or array.size < 2:
        raise QueryError("temporal correlation needs a 1-D sequence of length >= 2")
    value_range = float(array.max() - array.min())
    if value_range == 0.0:
        return 1.0
    return 1.0 - average_distance(array) / value_range


class RunningCorrelation:
    """Streaming estimator of ``tc`` for one attribute.

    ChronicleDB keeps local statistics per time split (Section 5.4); this
    tracker maintains them in O(1) per event so sealing a split can record
    each attribute's temporal correlation without buffering values.
    """

    def __init__(self) -> None:
        self.count = 0
        self._previous: float | None = None
        self._distance_sum = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def add(self, value: float) -> None:
        self.count += 1
        if self._previous is not None:
            self._distance_sum += abs(value - self._previous)
        self._previous = value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def add_run(self, values) -> None:
        """Feed a run of values in one call — the batched form of
        :meth:`add`, bit-identical to calling it per value.

        *values* is viewed, not copied, when it is a typed array.
        Consecutive distances are computed vectorized (subtraction and
        ``abs`` are exact, so each distance matches the per-event float
        bit for bit) and summed by ``np.add.accumulate`` seeded with the
        running sum — strictly sequential, so the same additions in the
        same order as the per-event updates.  (Builtin ``sum`` is not:
        from Python 3.12 it compensates float sums.)  Min/max are pure
        comparisons, exact under any evaluation order; the two cases
        where order could leak (signed-zero ties, NaN) fall back to the
        per-value update loop.
        """
        n = len(values)
        if n == 0:
            return
        if n == 1:
            self.add(float(values[0]))
            return
        array = np.asarray(values, dtype=np.float64)
        distance_sum = self._distance_sum
        if self._previous is not None:
            distance_sum += abs(float(values[0]) - self._previous)
        with np.errstate(over="ignore", invalid="ignore"):
            # Python float arithmetic overflows to inf silently; keep
            # the vectorized form equally silent.
            distances = np.abs(np.diff(array))
            distances[0] += distance_sum
            distance_sum = np.add.accumulate(distances)[-1].item()
        low = array.min().item()
        high = array.max().item()
        if distance_sum != distance_sum or (
            (low == 0.0 or high == 0.0) and bool(np.signbit(array).any())
        ):
            # NaN anywhere poisons the distance sum; a 0.0 extreme next
            # to a -0.0 may be a signed-zero tie whose winner depends on
            # scan order.  Replay per value — `add` is the defining
            # semantics.
            for value in values:
                self.add(float(value))
            return
        self._distance_sum = distance_sum
        self._previous = float(values[-1])
        self.count += n
        if low < self.minimum:
            self.minimum = low
        if high > self.maximum:
            self.maximum = high

    @property
    def tc(self) -> float:
        """Current temporal correlation (1.0 until two values are seen)."""
        if self.count < 2:
            return 1.0
        value_range = self.maximum - self.minimum
        if value_range == 0.0:
            return 1.0
        average = self._distance_sum / (self.count - 1)
        return 1.0 - average / value_range

    def to_dict(self) -> dict:
        """Snapshot for the split's commit metadata."""
        return {
            "count": self.count,
            "previous": self._previous,
            "distance_sum": self._distance_sum,
            "minimum": None if self.count == 0 else self.minimum,
            "maximum": None if self.count == 0 else self.maximum,
        }

    @classmethod
    def from_dict(cls, state: dict) -> "RunningCorrelation":
        tracker = cls()
        tracker.count = state["count"]
        tracker._previous = state["previous"]
        tracker._distance_sum = state["distance_sum"]
        if state["minimum"] is not None:
            tracker.minimum = state["minimum"]
            tracker.maximum = state["maximum"]
        return tracker


def minimum_correlation(columns: dict[str, list]) -> tuple[str, float]:
    """The attribute with the lowest temporal correlation and its tc.

    This is the "minimum tc" column of the paper's Table 1, and the
    attribute the load scheduler prioritizes for secondary indexing.
    """
    if not columns:
        raise QueryError("no columns given")
    scores = {name: temporal_correlation(vals) for name, vals in columns.items()}
    name = min(scores, key=scores.get)
    return name, scores[name]
