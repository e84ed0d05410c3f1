"""System-time ordering — the paper's *first* out-of-order solution.

Section 5.7 sketches two ways to cope with out-of-order events.  The
second (application-time index + sorted queue + spare space) is
ChronicleDB's default and lives in :mod:`repro.ooo`.  The first is
implemented here for comparison:

    "we could change the notion of time in the TAB+-tree.  Instead of
    using application time as the primary attribute for indexing, we
    could use system time.  By definition, the events are then always in
    correct order ... Furthermore, application time should be used as an
    additional attribute indexed in a lightweight fashion within the
    TAB+-tree.  This causes additional cost in query processing, in
    particular for aggregate queries."

A :class:`SystemTimeStream` wraps an :class:`~repro.core.stream.EventStream`
whose primary key is an arrival counter; the application timestamp is
stored (and lightweight-indexed) as the first attribute.  Ingestion is
therefore a pure append regardless of how late events arrive; queries on
application time degrade to Algorithm-2 pruning scans.
"""

from __future__ import annotations

from repro.core.config import ChronicleConfig
from repro.core.devices import DeviceProvider
from repro.core.stream import EventStream
from repro.errors import QueryError
from repro.events.event import Event
from repro.events.schema import EventSchema, Field, FieldKind
from repro.index.queries import AttributeRange, fold

_APP_TIME = "app_time"
_HUGE = 2**62


class SystemTimeStream:
    """An event stream physically ordered by arrival.

    The public API mirrors the application-time methods of
    :class:`EventStream`, but every operation is answered through the
    lightweight index on the ``app_time`` attribute.
    """

    def __init__(
        self,
        name: str,
        schema: EventSchema,
        config: ChronicleConfig,
        devices: DeviceProvider,
    ):
        if _APP_TIME in schema:
            raise QueryError(f"schema already has an attribute {_APP_TIME!r}")
        self.user_schema = schema
        internal_fields = [Field(_APP_TIME, FieldKind.I64)] + list(schema.fields)
        self._internal_schema = EventSchema(internal_fields)
        self.stream = EventStream(name, self._internal_schema, config, devices)
        self._arrival = 0

    @property
    def name(self) -> str:
        return self.stream.name

    @property
    def appended(self) -> int:
        return self.stream.appended

    def append(self, event: Event) -> None:
        """Ingest an event; arrival order is the physical order."""
        self.stream.append(
            Event(self._arrival, (event.t,) + tuple(event.values))
        )
        self._arrival += 1

    def append_batch(self, events) -> int:
        """Batched ingestion: arrival counters are strictly increasing,
        so the whole batch is one chronological run for the fast path."""
        arrival = self._arrival
        internal = []
        for event in events:
            internal.append(Event(arrival, (event.t,) + tuple(event.values)))
            arrival += 1
        self._arrival = arrival
        return self.stream.append_batch(internal)

    def append_many(self, events) -> int:
        """Alias of :meth:`append_batch` (kept for the original API)."""
        return self.append_batch(events)

    def _to_user(self, internal: Event) -> Event:
        return Event(int(internal.values[0]), tuple(internal.values[1:]))

    def time_travel(self, t_start: int, t_end: int):
        """Events with application time in [t_start, t_end].

        Served by an Algorithm-2 pruning scan over the ``app_time``
        min/max statistics; results are re-sorted by application time
        (arrival order only approximates it).
        """
        hits = [
            self._to_user(e)
            for e in self.stream.filter(
                -_HUGE, _HUGE, [AttributeRange(_APP_TIME, t_start, t_end)]
            )
        ]
        hits.sort(key=lambda e: e.t)
        return iter(hits)

    def scan(self):
        return self.time_travel(-_HUGE, _HUGE)

    def aggregate(self, t_start: int, t_end: int, attribute: str,
                  function: str) -> float:
        """Aggregate over an *application-time* range.

        The stored entry statistics are keyed by system time, so they
        cannot answer an application-time range directly — qualifying
        events are scanned (the "additional cost ... in particular for
        aggregate queries" the paper predicts).
        """
        position = self.user_schema.index_of(attribute)
        return fold(function, [
            e.values[position] for e in self.time_travel(t_start, t_end)
        ])

    def filter(self, t_start: int, t_end: int, ranges: list[AttributeRange]):
        """Application-time range + attribute filters."""
        internal_ranges = [AttributeRange(_APP_TIME, t_start, t_end)] + [
            AttributeRange(r.name, r.low, r.high) for r in ranges
        ]
        hits = [
            self._to_user(e)
            for e in self.stream.filter(-_HUGE, _HUGE, internal_ranges)
        ]
        hits.sort(key=lambda e: e.t)
        return iter(hits)

    def flush(self) -> None:
        self.stream.flush()

    def close(self) -> None:
        self.stream.close()
