"""The vectorised leaf kernel and the column-wise combine equal their
per-value reference models, bit for bit.

Index entries are persisted in ``.cdb`` index nodes and the split's
temporal correlation is built from each leaf's ``low`` / ``high``, so
every ``0.0`` / ``-0.0`` choice and every NaN placement has to come out
as a per-value fold would make it.  The references below are the
per-value kernel (builtin ``min`` / ``max`` over a column whenever it has
a NaN or a zero extreme) and the pairwise left fold ``merge`` that
``IndexEntry.combine`` used to apply entry by entry.  Results are
compared by ``repr``, which tells ``-0.0`` from ``0.0`` and shows NaN.
"""

import math
from array import array

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.entry import IndexEntry, LeafStatistics, ordered_sums


def _ordered(rows):
    return (np.add.accumulate(rows, axis=1)[:, -1] + 0.0).tolist()


def reference_of(child_id, timestamps, columns, indexed_positions, extended=False):
    """``LeafStatistics.of`` with a per-value fold for any column whose
    sum is NaN or that has a ``0.0`` / ``-0.0`` extreme."""
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
        if sums[i] != sums[i] or 0.0 in (low[i], high[i]):
            entry_low[i], entry_high[i] = float(min(column)), float(max(column))
            real = [value for value in values[i].tolist() if value == value]
            low[i] = min(real, default=math.inf)
            high[i] = max(real, default=-math.inf)
    aggs = [
        (entry_low[i], entry_high[i], sums[i]) + ((squares[i],) if extended else ())
        for i in indexed_positions
    ]
    entry = IndexEntry(child_id=child_id, t_min=timestamps[0],
                       t_max=timestamps[-1], count=len(timestamps), aggs=aggs)
    return entry, low, high


def reference_merge(entry, other):
    entry.t_min = min(entry.t_min, other.t_min)
    entry.t_max = max(entry.t_max, other.t_max)
    entry.count += other.count
    entry.aggs = [
        (min(a[0], b[0]), max(a[1], b[1]))
        + tuple(x + y for x, y in zip(a[2:], b[2:]))
        for a, b in zip(entry.aggs, other.aggs)
    ]


def reference_combine(child_id, entries):
    merged = IndexEntry(child_id=child_id, t_min=entries[0].t_min,
                        t_max=entries[0].t_max, count=entries[0].count,
                        aggs=list(entries[0].aggs))
    for entry in entries[1:]:
        reference_merge(merged, entry)
    return merged


@st.composite
def f64_column(draw, n):
    """A float column with the kernel's hard cases: zero ties at the min,
    at the max or everywhere; NaN first, in the middle or last; ``±inf``,
    and both infinities in one leaf."""
    shape = draw(st.sampled_from(
        ["plain", "zero_min", "zero_max", "all_zero", "nan", "inf", "both_inf"]
    ))
    finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
    if shape == "zero_min":
        finite = st.floats(0.0, 1e9)
    elif shape == "zero_max":
        finite = st.floats(-1e9, 0.0)
    values = draw(st.lists(finite, min_size=n, max_size=n))
    if shape in ("zero_min", "zero_max"):
        for _ in range(draw(st.integers(1, 3))):
            values[draw(st.integers(0, n - 1))] = draw(st.sampled_from([0.0, -0.0]))
    elif shape == "all_zero":
        values = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=n, max_size=n))
    elif shape == "nan":
        where = draw(st.sampled_from(["first", "middle", "last"]))
        values[{"first": 0, "middle": n // 2, "last": n - 1}[where]] = math.nan
    elif shape == "inf":
        values[draw(st.integers(0, n - 1))] = draw(st.sampled_from([math.inf, -math.inf]))
    elif shape == "both_inf":
        values[draw(st.integers(0, n - 1))] = math.inf
        values[draw(st.integers(0, n - 1))] = -math.inf
    if draw(st.booleans()):
        return array("d", values)
    return values


@st.composite
def column(draw, n):
    if draw(st.integers(0, 3)) == 0:  # I64 near ±2**62
        base = draw(st.sampled_from([2**62, -(2**62)]))
        values = draw(st.lists(st.integers(base - 1000, base + 1000),
                               min_size=n, max_size=n))
        return array("q", values) if draw(st.booleans()) else values
    return draw(f64_column(n))


@st.composite
def leaves(draw):
    n = draw(st.integers(1, 200))
    arity = draw(st.integers(1, 4))
    columns = [draw(column(n)) for _ in range(arity)]
    indexed = sorted(draw(st.sets(st.integers(0, arity - 1))))
    start = draw(st.integers(0, 10**6))
    return list(range(start, start + n)), columns, indexed, draw(st.booleans())


@settings(max_examples=250, deadline=None)
@given(leaves())
def test_leaf_statistics_equal_the_per_value_reference(leaf):
    timestamps, columns, indexed, extended = leaf
    stats = LeafStatistics.of(7, timestamps, columns, indexed, extended)
    entry, low, high = reference_of(7, timestamps, columns, indexed, extended)
    assert repr(stats.entry) == repr(entry)
    assert repr(stats.low) == repr(low)
    assert repr(stats.high) == repr(high)


FIELD = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 2.5, 1e16, -1e16, math.nan, math.inf, -math.inf]
)


@st.composite
def entry_runs(draw):
    """1–70 entries of one schema whose fields are rich in zero ties,
    NaN, infinities and cancelling sums."""
    arity = draw(st.integers(1, 4))
    width = draw(st.sampled_from([3, 4]))  # extended aggregates off / on
    aggs = st.lists(st.tuples(*[FIELD] * width), min_size=arity, max_size=arity)
    counts = draw(st.lists(st.tuples(st.integers(1, 200), aggs),
                           min_size=1, max_size=70))
    entries, t = [], 0
    for child, (count, entry_aggs) in enumerate(counts):
        entries.append(IndexEntry(child, t, t + count - 1, count, entry_aggs))
        t += count
    return entries


@settings(max_examples=300, deadline=None)
@given(entry_runs())
def test_combine_equals_the_pairwise_fold(entries):
    assert repr(IndexEntry.combine(99, entries)) == repr(reference_combine(99, entries))


def test_zero_ties_keep_the_first_zero():
    """Builtin ``min`` / ``max`` keep the first of equal extremes."""
    columns = [array("d", [3.0, -0.0, 0.0]), array("d", [-2.0, 0.0, -0.0])]
    stats = LeafStatistics.of(1, [0, 1, 2], columns, [0, 1])
    assert repr(stats.entry.aggs) == repr([(-0.0, 3.0, 3.0), (-2.0, 0.0, -2.0)])
    assert repr((stats.low, stats.high)) == repr(([-0.0, -2.0], [3.0, 0.0]))


def test_combine_sums_from_the_first_entry_not_from_zero():
    entries = [IndexEntry(i, i, i, 1, [(-0.0, -0.0, -0.0)]) for i in range(3)]
    assert repr(IndexEntry.combine(5, entries).aggs) == repr([(-0.0, -0.0, -0.0)])
