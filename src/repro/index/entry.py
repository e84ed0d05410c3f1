"""TAB+-tree index entries (paper, Figure 4).

An index entry summarizes one child subtree: the child's id, its time
interval, the number of events below it, and for every *indexed*
attribute the (min, max, sum) triple.  These small statistics are what
enable lightweight secondary filtering (Algorithm 2) and logarithmic
temporal aggregation (Section 5.6.2) at negligible storage cost — they
exist only in index levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add

import numpy as np


def ordered_sum(values):
    """``Σ v``, added left to right from 0.

    The one summation order for every stored and queried sum: builtin
    ``sum``'s order up to Python 3.11.  From 3.12 the builtin compensates
    float sums (``sum([1e16, 1.0, -1e16])`` is ``1.0`` there, ``0.0``
    here), and those sums are persisted in index entries.  Integers add
    exactly, so an ``I64`` column's sums are exact integers.
    """
    total = 0
    for value in values:
        total += value
    return total


def ordered_sums(values) -> tuple:
    """``(Σ v, Σ v·v)`` in :func:`ordered_sum`'s order, in one pass."""
    total = squares = 0
    for value in values:
        total += value
        squares += value * value
    return total, squares


def _ordered(rows: np.ndarray) -> list[float]:
    """:func:`ordered_sum`'s order per row: ``accumulate`` is sequential
    (``np.sum`` is pairwise), and ``+ 0.0`` is all a 0 seed changes (an
    all ``-0.0`` row sums to ``0.0``)."""
    return (np.add.accumulate(rows, axis=1)[:, -1] + 0.0).tolist()


@dataclass
class IndexEntry:
    """Summary of one child node of a TAB+-tree index node.

    Each element of ``aggs`` is a ``(min, max, sum)`` triple per indexed
    attribute — Figure 4 of the paper — or a ``(min, max, sum, sum_sq)``
    quadruple when *extended aggregates* are enabled, which upgrades
    ``stdev`` queries from leaf scans to logarithmic time (an extension
    the paper's entry layout permits at +8 bytes per attribute).
    """

    child_id: int
    t_min: int
    t_max: int
    count: int
    aggs: list[tuple] = field(default_factory=list)

    def add_value(self, t: int, indexed_values: list[float]) -> None:
        """Extend the summary with a single event (out-of-order insert)."""
        self.t_min = min(self.t_min, t)
        self.t_max = max(self.t_max, t)
        self.count += 1
        new_aggs = []
        for agg, value in zip(self.aggs, indexed_values):
            updated = (min(agg[0], value), max(agg[1], value), agg[2] + value)
            if len(agg) == 4:
                updated += (agg[3] + value * value,)
            new_aggs.append(updated)
        self.aggs = new_aggs

    @classmethod
    def combine(cls, child_id: int, entries: list["IndexEntry"]) -> "IndexEntry":
        """Summarize a whole index node (list of entries) into one entry:
        per attribute, builtin ``min`` / ``max`` over the entries and a left
        fold of each sum from entry 0's value (``0 + -0.0`` is ``0.0``)."""
        aggs = [
            (min(lows), max(highs)) + tuple(reduce(add, sums) for sums in totals)
            for lows, highs, *totals in (
                zip(*fields) for fields in zip(*(entry.aggs for entry in entries))
            )
        ]
        return cls(child_id, min(entry.t_min for entry in entries),
                   max(entry.t_max for entry in entries),
                   sum(entry.count for entry in entries), aggs)


@dataclass
class LeafStatistics:
    """Everything one pass over a leaf yields (paper, Sections 5.1-5.2).

    *entry* is the leaf's index entry; *values* (a float64 row per
    attribute, every attribute) and *low* / *high* are the leaf's part of
    each attribute's temporal correlation, folded per split by
    :class:`repro.index.correlation.SplitCorrelation`.  *low* / *high*
    are the extremes a per-value fold from ``±inf`` finds, so NaN never
    wins — unlike the entry's, which follow builtin ``min`` / ``max``.
    """

    entry: IndexEntry
    values: np.ndarray
    low: list[float]
    high: list[float]

    @classmethod
    def of(cls, child_id: int, timestamps, columns, indexed_positions,
           extended: bool = False) -> "LeafStatistics":
        """The kernel: every leaf statistic the store keeps comes from here.

        Min/max are numpy reductions with builtin ``min`` / ``max``'s pick
        among equal extremes: a ``0.0`` extreme is the row's first zero.
        Only a column whose sum is NaN (it holds a NaN, or ``+inf`` and
        ``-inf``) takes the per-value fold.
        """
        values = np.array(columns, dtype=np.float64)
        with np.errstate(all="ignore"):  # Python floats overflow silently too
            sums = _ordered(values)
            squares = _ordered(values * values) if extended else None
        low, high = values.min(axis=1).tolist(), values.max(axis=1).tolist()
        entry_low, entry_high = list(low), list(high)
        for i, column in enumerate(columns):
            if getattr(column, "typecode", None) != "d":  # exact, rounded once
                total, total_squares = ordered_sums(column)
                sums[i] = float(total)
                if extended:
                    squares[i] = float(total_squares)
            if sums[i] != sums[i]:
                entry_low[i], entry_high[i] = float(min(column)), float(max(column))
                real = [value for value in values[i].tolist() if value == value]
                low[i] = min(real, default=math.inf)
                high[i] = max(real, default=-math.inf)
            elif 0.0 in (low[i], high[i]):  # NaN-free: the first zero is the pick
                zero = float(values[i][(values[i] == 0.0).argmax()])
                low[i] = entry_low[i] = zero if low[i] == 0.0 else low[i]
                high[i] = entry_high[i] = zero if high[i] == 0.0 else high[i]
        aggs = [
            (entry_low[i], entry_high[i], sums[i]) + ((squares[i],) if extended else ())
            for i in indexed_positions
        ]
        entry = IndexEntry(child_id=child_id, t_min=timestamps[0],
                           t_max=timestamps[-1], count=len(timestamps),
                           aggs=aggs)
        return cls(entry, values, low, high)
