"""The run kernel and the run fold equal the per-leaf ones, bit for bit.

`TabTree.append_run` computes the statistics of every leaf a run fills
with one `RunStatistics.of` call over an ``(arity, leaves, rows)`` block,
built from the open leaf's columns and the run's, and the split folds
the whole block into its tc with one `SplitCorrelation.fold`.  The
references below are the kernel and the fold as they were applied leaf
by leaf before: `reference_of` (one leaf's `LeafStatistics.of`) and
`ReferenceCorrelation.fold` (one leaf per call).  Index entries are
persisted and tc is recorded at seal, so results are compared by
``repr``, which tells ``-0.0`` from ``0.0`` and shows NaN.
"""

import math
from array import array
from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.index.correlation import SplitCorrelation
from repro.index.entry import IndexEntry, RunStatistics, ordered_sums


def _ordered(rows):
    return (np.add.accumulate(rows, axis=1)[:, -1] + 0.0).tolist()


def reference_of(child_id, timestamps, columns, indexed_positions, extended=False):
    """One leaf's statistics, with one per-value fold for a column whose
    sum is NaN and the first zero for a ``0.0`` extreme."""
    values = np.array(columns, dtype=np.float64)
    with np.errstate(all="ignore"):
        sums = _ordered(values)
        squares = _ordered(values * values) if extended else None
    low, high = values.min(axis=1).tolist(), values.max(axis=1).tolist()
    entry_low, entry_high = list(low), list(high)
    for i, column in enumerate(columns):
        if getattr(column, "typecode", None) != "d":
            total, total_squares = ordered_sums(column)
            sums[i] = float(total)
            if extended:
                squares[i] = float(total_squares)
        if sums[i] != sums[i]:
            entry_low[i], entry_high[i] = float(min(column)), float(max(column))
            real = [value for value in values[i].tolist() if value == value]
            low[i] = min(real, default=math.inf)
            high[i] = max(real, default=-math.inf)
        elif 0.0 in (low[i], high[i]):
            zero = float(values[i][(values[i] == 0.0).argmax()])
            low[i] = entry_low[i] = zero if low[i] == 0.0 else low[i]
            high[i] = entry_high[i] = zero if high[i] == 0.0 else high[i]
    aggs = [
        (entry_low[i], entry_high[i], sums[i]) + ((squares[i],) if extended else ())
        for i in indexed_positions
    ]
    entry = IndexEntry(child_id=child_id, t_min=timestamps[0],
                       t_max=timestamps[-1], count=len(timestamps), aggs=aggs)
    return SimpleNamespace(entry=entry, values=values, low=low, high=high)


class ReferenceCorrelation:
    """tc folded one leaf per call."""

    def __init__(self, arity):
        self.count = 0
        self._last = None
        self._distance_sum = np.zeros(arity)
        self.minimum = [math.inf] * arity
        self.maximum = [-math.inf] * arity

    def fold(self, leaf):
        values = leaf.values
        steps = np.empty_like(values)
        with np.errstate(all="ignore"):
            np.subtract(values.ravel()[1:], values.ravel()[:-1],
                        out=steps.ravel()[1:])
            np.absolute(steps, out=steps)
            steps[:, 0] = self._distance_sum
            if self.count:
                steps[:, 0] += np.absolute(values[:, 0] - self._last)
            self._distance_sum = np.add.accumulate(steps, axis=1, out=steps)[:, -1]
        self._last = values[:, -1]
        self.count += values.shape[1]
        self.minimum = [v if v < m else m for v, m in zip(leaf.low, self.minimum)]
        self.maximum = [v if v > m else m for v, m in zip(leaf.high, self.maximum)]


def state(correlation):
    return repr((correlation.count, np.asarray(correlation._distance_sum).tolist(),
                 correlation.minimum, correlation.maximum))


#: Values whose sums differ between sequential and pairwise addition.
WILD = [1e16, -1e16, 1.0, 0.1, -0.3, 2.5, 1e-3, 3e8, -7.25]


@st.composite
def f64_values(draw, leaves, rows):
    """One attribute over every row of the run's full leaves, with the
    kernel's hard cases: zero ties within and across leaves, NaN first /
    in the middle / last of a leaf, an all-NaN leaf, ``±inf``, and both
    infinities in one leaf."""
    n = leaves * rows
    shape = draw(st.sampled_from(["plain", "wild", "zero_min", "zero_max",
                                  "all_zero", "nan", "nan_leaf", "inf",
                                  "both_inf"]))
    if shape == "wild":
        values = draw(st.lists(st.sampled_from(WILD), min_size=n, max_size=n))
    elif shape in ("zero_min", "zero_max"):
        bounds = (0.0, 1e9) if shape == "zero_min" else (-1e9, 0.0)
        values = draw(st.lists(st.floats(*bounds), min_size=n, max_size=n))
        for _ in range(draw(st.integers(1, 2 * leaves))):  # ties across leaves
            values[draw(st.integers(0, n - 1))] = draw(st.sampled_from([0.0, -0.0]))
    elif shape == "all_zero":
        values = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=n, max_size=n))
    else:
        finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
        values = draw(st.lists(finite, min_size=n, max_size=n))
    leaf = draw(st.integers(0, leaves - 1)) * rows
    if shape == "nan":
        where = draw(st.sampled_from([0, rows // 2, rows - 1]))
        values[leaf + where] = math.nan
    elif shape == "nan_leaf":
        values[leaf : leaf + rows] = [math.nan] * rows
    elif shape == "inf":
        values[draw(st.integers(0, n - 1))] = draw(st.sampled_from([math.inf, -math.inf]))
    elif shape == "both_inf":
        values[leaf + draw(st.integers(0, rows - 1))] = math.inf
        values[leaf + draw(st.integers(0, rows - 1))] = -math.inf
    return "d", values


@st.composite
def attribute(draw, leaves, rows):
    if draw(st.integers(0, 3)) == 0:  # I64 near ±2**62
        base = draw(st.sampled_from([2**62, -(2**62)]))
        n = leaves * rows
        return "q", draw(st.lists(st.integers(base - 1000, base + 1000),
                                  min_size=n, max_size=n))
    return draw(f64_values(leaves, rows))


@st.composite
def runs(draw):
    """A run that fills 1–8 leaves of up to 40 rows behind 0 to
    ``rows - 1`` rows the open leaf carries, arity 1–4."""
    arity = draw(st.integers(1, 4))
    rows = draw(st.integers(2, 40))
    leaves = draw(st.integers(1, 8))
    carried = draw(st.integers(0, rows - 1))
    attributes = [draw(attribute(leaves, rows)) for _ in range(arity)]
    as_lists = draw(st.booleans())  # the run's columns: lists or arrays
    indexed = sorted(draw(st.sets(st.integers(0, arity - 1))))
    return attributes, rows, leaves, carried, as_lists, indexed, draw(st.booleans())


def leaf_columns(attributes, start, stop):
    """The columns a leaf holds: arrays of each attribute's typecode."""
    return [array(typecode, values[start:stop]) for typecode, values in attributes]


def check(run):
    attributes, rows, leaves, carried, as_lists, indexed, extended = run
    columns = [values[carried:] if as_lists else array(typecode, values[carried:])
               for typecode, values in attributes]
    first = leaf_columns(attributes, 0, rows)
    stats = RunStatistics.of(first, columns, rows - carried, leaves, indexed,
                             extended)
    reference = ReferenceCorrelation(len(attributes))
    for leaf in range(leaves):
        timestamps = list(range(leaf * rows, (leaf + 1) * rows))
        own = leaf_columns(attributes, leaf * rows, (leaf + 1) * rows)
        got = stats.leaf(leaf, 100 + leaf, timestamps, own)
        want = reference_of(100 + leaf, timestamps, own, indexed, extended)
        assert repr(got.entry) == repr(want.entry)
        assert repr((got.low, got.high)) == repr((want.low, want.high))
        reference.fold(want)
    correlation = SplitCorrelation(len(attributes))
    correlation.fold(stats.values, stats.low, stats.high)
    assert state(correlation) == state(reference)
    # A second fold continues across the boundary, as the next run's does.
    for leaf in range(leaves):
        reference.fold(reference_of(0, [0], leaf_columns(
            attributes, leaf * rows, (leaf + 1) * rows), indexed))
    correlation.fold(stats.values, stats.low, stats.high)
    assert state(correlation) == state(reference)


@settings(max_examples=300, deadline=None)
@given(runs())
# Nine 0.1s sum to 0.9 pairwise, to 0.8999999999999999 in order.
@example(([("d", [0.1] * 18)], 9, 2, 0, False, [0], False))
# A -0.0 minimum in one leaf, then a 0.0 one: the first stays.
@example(([("d", [1.0, -0.0, 2.0, 0.0, 3.0, 4.0])], 3, 2, 1, True, [0], False))
def test_run_kernel_and_fold_equal_the_per_leaf_reference(run):
    check(run)


def test_a_failed_flush_folds_the_leaves_written():
    """A run whose third leaf failed to write folds its first two."""
    values = [float(k % 7) - 3.0 for k in range(12)]
    stats = RunStatistics.of([array("d", values[:4])], [values], 4, 3, [0])
    for leaf in range(3):
        stats.leaf(leaf, leaf, [leaf], [array("d", values[4 * leaf : 4 * leaf + 4])])
    reference = ReferenceCorrelation(1)
    for leaf in range(2):
        reference.fold(reference_of(leaf, [0], [values[4 * leaf : 4 * leaf + 4]], [0]))
    correlation = SplitCorrelation(1)
    correlation.fold(stats.values[:, :2], stats.low, stats.high)
    assert state(correlation) == state(reference)
