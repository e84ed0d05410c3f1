"""The event record type and the one batch type."""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from repro.errors import SchemaError


@dataclass(frozen=True, slots=True)
class Event:
    """A single temporal-relational event.

    Attributes
    ----------
    t:
        Application timestamp, a 64-bit integer in a unit chosen by the
        application (microseconds by convention).
    values:
        The non-temporal attribute values, in schema order.
    """

    t: int
    values: tuple

    def __lt__(self, other: "Event") -> bool:
        # Events order by application time (``sorted(events)``).
        return self.t < other.t

    def value(self, index: int):
        """The attribute at schema position *index*."""
        return self.values[index]

    @classmethod
    def of(cls, t: int, *values) -> "Event":
        """Convenience constructor: ``Event.of(10, 1.5, 2.5)``."""
        return cls(t, tuple(values))


class ColumnarEvents:
    """A batch of events held column-wise — the one batch type.

    Every layer a batch crosses takes this shape: the wire encoder and
    decoder, shard routing, stream run detection, the split, the
    out-of-order manager, its late-event queue and logs, and the
    TAB+-tree's flank append (which bulk-extends leaf columns from it),
    and back out through the scan that answers ``SELECT *``, catch-up
    and subscription pushes.  A list of :class:`Event` becomes one only
    at the API boundary (:meth:`of`); on ingest, only the embedded
    subscriber tap still iterates a batch into events.

    Columns are any sequences at the API boundary (lists, tuples).  A
    decoded wire batch holds ``array.array`` columns of the schema's
    typecodes, and below ``EventStream._ingest`` every column is one:
    that is what the open leaf extends and serializes without boxing.
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
        for t, values in zip(self.timestamps, zip(*self.columns)):
            yield Event(t, values)

    # ------------------------------------------------- lazy materialization

    @classmethod
    def empty(cls, arity: int) -> "ColumnarEvents":
        """An empty, growable batch (also the scan's result sink)."""
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
        construction.
        """
        return [
            Event(t, values)
            for t, values in zip(self.timestamps, zip(*self.columns))
        ]


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
