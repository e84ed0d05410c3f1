"""PAX serialization of event batches.

ChronicleDB stores events row-grouped but column-ordered *within* a single
L-block (paper, Section 4.2.1, following the PAX layout of Ailamaki et
al.).  All values of one attribute are laid out contiguously, which groups
similar values together and improves compression, while keeping all data of
one event inside the same block.

The codec converts between columnar Python lists and ``bytes``; block
headers (counts, links, LSNs) are the responsibility of the node layer.
"""

from __future__ import annotations

import struct

from repro.errors import SchemaError
from repro.events.event import ColumnarEvents, Event
from repro.events.schema import VALUE_SIZE, EventSchema


class PaxCodec:
    """Encode/decode batches of events for one :class:`EventSchema`."""

    def __init__(self, schema: EventSchema):
        self.schema = schema
        self._column_chars = [f.kind.struct_char for f in schema.fields]
        #: One event as ``(t, *values)``: the WAL and mirror-log payload.
        self.row = struct.Struct("<q" + "".join(self._column_chars))

    def encode_columns(self, timestamps: list[int], columns: list[list]) -> bytes:
        """Serialize columnar data: timestamps first, then each attribute column."""
        count = len(timestamps)
        if len(columns) != self.schema.arity:
            raise SchemaError(
                f"expected {self.schema.arity} columns, got {len(columns)}"
            )
        parts = [struct.pack(f"<{count}q", *timestamps)]
        for char, column in zip(self._column_chars, columns):
            if len(column) != count:
                raise SchemaError("ragged columns: lengths differ from timestamps")
            parts.append(struct.pack(f"<{count}{char}", *column))
        return b"".join(parts)

    def decode_columns(self, data: bytes, count: int) -> tuple[list[int], list[list]]:
        """Inverse of :meth:`encode_columns` for a batch of *count* events."""
        need = count * VALUE_SIZE * (1 + self.schema.arity)
        if len(data) < need:
            raise SchemaError(f"buffer too small: {len(data)} < {need}")
        offset = 0
        timestamps = list(struct.unpack_from(f"<{count}q", data, offset))
        offset += count * VALUE_SIZE
        columns = []
        for char in self._column_chars:
            columns.append(list(struct.unpack_from(f"<{count}{char}", data, offset)))
            offset += count * VALUE_SIZE
        return timestamps, columns

    def encode_events(self, events) -> bytes:
        """Serialize a batch given as events (or as a batch)."""
        batch = ColumnarEvents.of(events, self.schema.arity)
        return self.encode_columns(batch.timestamps, batch.columns)

    def decode_events(self, data: bytes, count: int) -> list[Event]:
        """Deserialize a batch back to row-form events."""
        timestamps, columns = self.decode_columns(data, count)
        return [
            Event(timestamps[row], tuple(column[row] for column in columns))
            for row in range(count)
        ]

    def encode_rows(self, events: list[Event]) -> bytes:
        """Row-major (NSM) serialization of a batch.

        Exists for the PAX-vs-row ablation: the paper chooses the PAX
        layout inside L-blocks because grouping a column's similar values
        compresses better than interleaved rows (Section 4.2.1).
        """
        return b"".join(self.row.pack(event.t, *event.values) for event in events)
