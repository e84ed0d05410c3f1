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

import math

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


def _tc(count: int, distance_sum: float, minimum: float, maximum: float) -> float:
    if count < 2:
        return 1.0
    value_range = maximum - minimum
    if value_range == 0.0:
        return 1.0
    average = distance_sum / (count - 1)
    return 1.0 - average / value_range


class RunningCorrelation:
    """Streaming estimator of ``tc`` for one attribute.

    The per-value definition: :class:`SplitCorrelation`, which the
    store runs, must match it bit for bit.
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

    @property
    def tc(self) -> float:
        """Current temporal correlation (1.0 until two values are seen)."""
        return _tc(self.count, self._distance_sum, self.minimum, self.maximum)


class SplitCorrelation:
    """Every attribute's tc over one split, folded run by run.

    The split feeds it the statistics block of each run's written leaves
    (:class:`repro.index.entry.RunStatistics`) in flush order, and the
    open leaf's at seal — no per-event work.  The result is
    bit-identical to :meth:`RunningCorrelation.add` per value over those
    rows: each fold adds the step across the boundary to the previous
    fold to the running distance sum and then the block's steps, one by
    one (``np.add.accumulate`` is strictly sequential; subtraction and
    ``abs`` are exact), and the extremes are folded leaf by leaf in flush
    order, as the per-value fold finds them.
    """

    def __init__(self, arity: int) -> None:
        self.count = 0
        self._last = None
        self._distance_sum = np.zeros(arity)
        self.minimum = [math.inf] * arity
        self.maximum = [-math.inf] * arity

    def fold(self, values, low, high) -> None:
        """Fold leaves in flush order: *values* holds their rows, an
        ``(arity, leaves, rows)`` or, for one leaf, ``(arity, rows)``
        float64 block.  *low* / *high* hold each leaf's extremes
        attribute-major, as :class:`repro.index.entry.RunStatistics`
        lists them: attribute *i*'s leaves from ``i * len(low) // arity``
        on, of which the first ``leaves`` fold."""
        arity, leaves = len(values), 1
        if values.ndim == 3:
            leaves = values.shape[1]
            values = values.reshape(arity, -1)
        steps = np.empty_like(values)
        flat = values.ravel()
        with np.errstate(all="ignore"):  # as Python floats: inf - inf is NaN
            # One pass over the flat matrix: each row's steps, and across
            # each row boundary a junk step in column 0, overwritten next.
            np.subtract(flat[1:], flat[:-1], out=steps.ravel()[1:])
            np.absolute(steps, out=steps)
            steps[:, 0] = self._distance_sum
            if self.count:
                steps[:, 0] += np.absolute(values[:, 0] - self._last)
            self._distance_sum = np.add.accumulate(steps, axis=1, out=steps)[:, -1]
        self._last = values[:, -1]
        self.count += values.shape[1]
        minimum, maximum = self.minimum, self.maximum
        stride = len(low) // arity
        for leaf in range(leaves):
            minimum = [v if v < m else m for v, m in zip(low[leaf::stride], minimum)]
            maximum = [v if v > m else m for v, m in zip(high[leaf::stride], maximum)]
        self.minimum, self.maximum = minimum, maximum

    def scores(self, names) -> dict[str, float]:
        return {
            name: _tc(self.count, distance, low, high)
            for name, distance, low, high in zip(
                names, self._distance_sum.tolist(), self.minimum, self.maximum
            )
        }


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
