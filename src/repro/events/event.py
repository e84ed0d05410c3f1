"""The event record type and the one batch type."""

from __future__ import annotations

from collections import namedtuple
from functools import partial
from operator import itemgetter

from repro.errors import SchemaError


class Event(namedtuple("Event", "t values")):
    """A single temporal-relational event.

    A tuple-backed record, so a batch of them is built in one C-level
    pass (:meth:`from_columns`), without a Python call per row.  It keeps
    the semantics of a frozen record of two fields: it equals only an
    ``Event`` (never a plain ``(t, values)`` tuple), hashes as
    ``hash((t, values))``, orders by ``t`` alone (``<``; ``>`` reflects
    to it, ``<=`` and ``>=`` are unsupported), and is immutable.

    Attributes
    ----------
    t:
        Application timestamp, a 64-bit integer in a unit chosen by the
        application (microseconds by convention).
    values:
        The non-temporal attribute values, in schema order.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        return _unequal(other)

    def __ne__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__ne__(self, other)
        equal = _unequal(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = tuple.__hash__

    def __lt__(self, other: "Event") -> bool:
        # Events order by application time (``sorted(events)``).
        return self.t < other.t

    def __gt__(self, other):
        return _unordered(self, other, ">")

    def __le__(self, other):
        return _unordered(self, other, "<=")

    def __ge__(self, other):
        return _unordered(self, other, ">=")

    def value(self, index: int):
        """The attribute at schema position *index*."""
        return self.values[index]

    @classmethod
    def of(cls, t: int, *values) -> "Event":
        """Convenience constructor: ``Event.of(10, 1.5, 2.5)``."""
        return cls(t, tuple(values))

    @classmethod
    def from_columns(cls, timestamps, columns):
        """The events of a column set, in row order, as an iterator.

        The one column→event constructor: rows are zipped and wrapped by
        ``tuple.__new__`` in C, one pass, no Python call per row.
        """
        return map(partial(tuple.__new__, cls), zip(timestamps, zip(*columns)))


def _unequal(other):
    # A plain tuple (or any other tuple subclass) is never equal; tuple's
    # own ``__eq__`` must not get to compare it field by field.
    return False if isinstance(other, tuple) else NotImplemented


def _unordered(event, other, op):
    """``>``, ``<=`` and ``>=`` of an :class:`Event`: unsupported, except
    that ``>`` between events reflects to ``__lt__``.  Returning
    ``NotImplemented`` against a plain tuple would let tuple's ordering
    answer it, so that raises here."""
    if isinstance(other, tuple) and not isinstance(other, Event):
        raise TypeError(
            f"'{op}' not supported between instances of "
            f"{type(event).__name__!r} and {type(other).__name__!r}"
        )
    return NotImplemented


class ColumnarEvents:
    """A batch of events held column-wise — the one batch type.

    Every layer a batch crosses takes this shape: the wire encoder and
    decoder, shard routing, stream run detection, the split, the
    out-of-order manager, its late-event queue and logs, and the
    TAB+-tree's flank append (which bulk-extends leaf columns from it),
    and back out through the scan that answers ``SELECT *``, catch-up
    and subscription pushes.  A list of :class:`Event` becomes one only
    at the API boundary (:meth:`of`), and one becomes events there too,
    in one C-level pass (:meth:`materialize`, iteration); on ingest,
    only the embedded subscriber tap still iterates a batch into events.

    Columns are any sequences at the API boundary (lists, tuples).  A
    decoded wire batch holds ``array.array`` columns of the schema's
    typecodes, and below ``EventStream._ingest`` every column is one:
    that is what the open leaf extends and serializes without boxing.
    The scan that reads events out of a node collects into such arrays
    too, so its batch reaches the wire encoder without boxing a value.
    """

    __slots__ = ("timestamps", "columns")

    def __init__(self, timestamps, columns):
        self.timestamps = timestamps
        self.columns = columns

    @classmethod
    def of(cls, events, arity: int) -> "ColumnarEvents":
        """*events* as a batch with *arity* attribute columns.

        A batch passes through unchanged; an iterable of events is
        transposed once, and every event must carry exactly *arity*
        values — a wrong arity raises :class:`SchemaError` before any
        caller has acted on the batch.
        """
        if isinstance(events, cls):
            return events
        if not isinstance(events, (list, tuple)):
            events = list(events)
        values = [event.values for event in events]
        if set(map(len, values)) - {arity}:
            got = next(n for n in map(len, values) if n != arity)
            raise SchemaError(f"expected {arity} attribute values, got {got}")
        if not values:
            return cls.empty(arity)
        return cls([event.t for event in events], list(zip(*values)))

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getitem__(self, index: slice) -> "ColumnarEvents":
        """The rows in the slice *index*, as a batch of their own."""
        if not isinstance(index, slice):
            raise TypeError("a batch is sliced, not indexed by row")
        return ColumnarEvents(
            self.timestamps[index],
            [column[index] for column in self.columns],
        )

    def __iter__(self):
        return Event.from_columns(self.timestamps, self.columns)

    # ------------------------------------------------- lazy materialization

    @classmethod
    def empty(cls, arity: int) -> "ColumnarEvents":
        """An empty, growable batch of list columns."""
        return cls([], [[] for _ in range(arity)])

    def append_rows(self, timestamps, columns, rows) -> None:
        """Bulk-append the given *rows* of a source column set.

        The columnar scan executor collects qualifying rows leaf by leaf
        without building per-event objects; ``rows`` is the selection
        (row indices) produced by the filter columns.
        """
        self.timestamps.extend(pick(timestamps, rows))
        for own, column in zip(self.columns, columns):
            own.extend(pick(column, rows))

    def take(self, rows) -> "ColumnarEvents":
        """The batch of the given *rows* (indices), in that order."""
        out = ColumnarEvents.empty(len(self.columns))
        out.append_rows(self.timestamps, self.columns, rows)
        return out

    def materialize(self) -> list[Event]:
        """Build the per-event objects — the API-boundary step.

        Everything upstream of this call works on column arrays; only
        results actually handed to the application pay per-row object
        construction, and that is one C-level pass
        (:meth:`Event.from_columns`).
        """
        return list(Event.from_columns(self.timestamps, self.columns))


def pick(column, rows):
    """The values of *column* at *rows*, in order: one slice when *rows*
    is a ``range``, one ``itemgetter`` call otherwise — C loops, not a
    Python-level lookup per value (which an array pays twice: the lookup
    and boxing the value)."""
    if type(rows) is range and rows.step == 1:
        return column[rows.start : rows.stop]
    if len(rows) > 1:
        return itemgetter(*rows)(column)
    return [column[row] for row in rows]
