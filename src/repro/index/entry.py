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
        """One leaf's statistics: :class:`RunStatistics` over one leaf."""
        run = RunStatistics.of(columns, (), 0, 1, indexed_positions, extended)
        return run.leaf(0, child_id, timestamps, columns)


class RunStatistics:
    """The kernel: every leaf statistic the store keeps comes from here,
    one call for all the full leaves a chronological run writes.

    *values* is an ``(arity, leaves, rows)`` float64 block.  Sums are
    ``np.add.accumulate`` along the last axis (strictly sequential;
    ``np.add.reduce`` over a strided axis sums pairwise).  Min/max are
    the values at ``argmin`` / ``argmax``, which return the first of
    equal extremes, as builtin ``min`` / ``max`` keep it: a ``0.0``
    extreme is the row's first zero, ``-0.0`` or not.  *sums*, *low*
    and *high* list one value per (attribute, leaf) cell, attribute-major:
    attribute *i* of leaf *k* at ``i * leaves + k``.  What needs the
    leaf's own column — exact sums of an ``I64`` column, and the
    per-value fold of a column whose sum is NaN (it holds a NaN, or
    ``+inf`` and ``-inf``) — is done by :meth:`leaf` as each leaf is
    written.
    """

    def __init__(self, values: np.ndarray, exact, indexed_positions,
                 extended: bool) -> None:
        self.values = values
        self.leaves = values.shape[1]
        self.indexed_positions = indexed_positions
        self.extended = extended
        #: Attributes summed exactly from the leaf column (not ``'d'``).
        self.exact = exact
        cells = values.reshape(-1, values.shape[2])
        with np.errstate(all="ignore"):  # Python floats overflow silently too
            self.sums = (np.add.accumulate(cells, axis=1)[:, -1] + 0.0).tolist()
            if extended:
                self.squares = (np.add.accumulate(cells * cells, axis=1)[:, -1]
                                + 0.0).tolist()
        # The first of equal extremes, as builtin min / max keep it: a
        # 0.0 extreme is the row's first zero, -0.0 or not.
        every = np.arange(len(cells))
        self.low = cells[every, cells.argmin(axis=1)].tolist()
        self.high = cells[every, cells.argmax(axis=1)].tolist()

    @classmethod
    def of(cls, first, columns, start: int, leaves: int, indexed_positions,
           extended: bool = False) -> "RunStatistics":
        """Statistics of *leaves* full leaves: the first holds *first* (a
        leaf's columns), each next one the following ``len(first[0])``
        rows of the run's *columns* from *start*."""
        if leaves == 1:
            values = np.array(first, dtype=np.float64)[:, None, :]
        else:
            rows = len(first[0])
            values = np.empty((len(first), leaves, rows))
            stop = start + (leaves - 1) * rows
            for block, head, column in zip(values, first, columns):
                block[0] = head
                block[1:].reshape(-1)[:] = column[start:stop]
        exact = [i for i, column in enumerate(first)
                 if getattr(column, "typecode", None) != "d"]
        return cls(values, exact, indexed_positions, extended)

    def leaf(self, index: int, child_id: int, timestamps,
             columns) -> LeafStatistics:
        """Leaf *index*'s statistics, given its id and its own columns."""
        leaves, extended = self.leaves, self.extended
        sums, low, high = self.sums, self.low, self.high
        squares = self.squares if extended else None
        if leaves > 1:
            sums, low, high = sums[index::leaves], low[index::leaves], high[index::leaves]
            squares = squares[index::leaves] if extended else None
        for i in self.exact:  # exact, rounded once
            total, total_squares = ordered_sums(columns[i])
            sums[i] = float(total)
            if extended:
                squares[i] = float(total_squares)
        entry_low, entry_high = low, high
        for i, total in enumerate(sums):
            if total != total:  # a NaN, or +inf and -inf: per value
                if entry_low is low:
                    entry_low, entry_high = list(low), list(high)
                column = columns[i]
                entry_low[i], entry_high[i] = float(min(column)), float(max(column))
                real = [value for value in self.values[i, index].tolist()
                        if value == value]
                cell = i * leaves + index
                low[i] = self.low[cell] = min(real, default=math.inf)
                high[i] = self.high[cell] = max(real, default=-math.inf)
        if extended:
            aggs = [(entry_low[i], entry_high[i], sums[i], squares[i])
                    for i in self.indexed_positions]
        else:
            aggs = [(entry_low[i], entry_high[i], sums[i])
                    for i in self.indexed_positions]
        entry = IndexEntry(child_id, timestamps[0], timestamps[-1],
                           len(timestamps), aggs)
        return LeafStatistics(entry, self.values[:, index], low, high)
