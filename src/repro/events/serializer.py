"""PAX serialization of event batches.

ChronicleDB stores events row-grouped but column-ordered *within* a single
L-block (paper, Section 4.2.1, following the PAX layout of Ailamaki et
al.).  All values of one attribute are laid out contiguously, which groups
similar values together and improves compression, while keeping all data of
one event inside the same block.

The codec converts between columns and ``bytes``.  Decoding yields one
typed :class:`array.array` per column (``q`` for timestamps and ``I64``,
``d`` for ``F64``), filled by one ``frombytes`` each; encoding such an
array is one ``tobytes``, while any other sequence (client lists, scan
results) is packed value by value.  Block headers (counts, links, LSNs)
are the responsibility of the node layer.
"""

from __future__ import annotations

import struct
import sys
from array import array

from repro.errors import SchemaError
from repro.events.event import ColumnarEvents, Event
from repro.events.schema import VALUE_SIZE, EventSchema

#: Arrays hold native-order values; the format is little-endian.
_NATIVE_LE = sys.byteorder == "little"


class PaxCodec:
    """Encode/decode batches of events for one :class:`EventSchema`."""

    def __init__(self, schema: EventSchema):
        self.schema = schema
        self._column_chars = [f.kind.struct_char for f in schema.fields]
        #: One event as ``(t, *values)``: the WAL and mirror-log payload.
        self.row = struct.Struct("<q" + "".join(self._column_chars))

    def encode_columns(self, timestamps, columns) -> bytes:
        """Serialize columnar data: timestamps first, then each attribute
        column.  A column that is an ``array`` of exactly its schema
        typecode is copied out with ``tobytes``; any other sequence is
        packed per value; a value its struct cannot hold (so also an
        ``array('d')`` for an ``I64`` column, whose float bits must not
        leak through) raises :class:`SchemaError`."""
        count = len(timestamps)
        if len(columns) != self.schema.arity:
            raise SchemaError(
                f"expected {self.schema.arity} columns, got {len(columns)}"
            )
        parts = [_pack("q", count, timestamps)]
        for char, column in zip(self._column_chars, columns):
            if len(column) != count:
                raise SchemaError("ragged columns: lengths differ from timestamps")
            parts.append(_pack(char, count, column))
        return b"".join(parts)

    def decode_columns(self, data, count: int) -> tuple[array, list[array]]:
        """Inverse of :meth:`encode_columns` for a batch of *count* events:
        one typed array per column, each filled from its byte range."""
        need = count * VALUE_SIZE * (1 + self.schema.arity)
        if len(data) < need:
            raise SchemaError(f"buffer too small: {len(data)} < {need}")
        view = memoryview(data)
        width = count * VALUE_SIZE
        timestamps = unpack_column("q", view[:width])
        columns = [
            unpack_column(char, view[k * width : (k + 1) * width])
            for k, char in enumerate(self._column_chars, start=1)
        ]
        return timestamps, columns

    def typed(self, timestamps, columns) -> tuple[array, list[array]]:
        """*timestamps* and *columns* as arrays of the schema's typecodes
        (an array that already is one is passed through, not copied).  A
        value its typecode cannot hold raises :class:`SchemaError`."""
        try:
            return _typed("q", timestamps), [
                _typed(char, column)
                for char, column in zip(self._column_chars, columns)
            ]
        except (TypeError, OverflowError) as error:
            raise SchemaError(f"value does not fit the schema: {error}") from error

    def encode_events(self, events) -> bytes:
        """Serialize a batch given as events (or as a batch)."""
        batch = ColumnarEvents.of(events, self.schema.arity)
        return self.encode_columns(batch.timestamps, batch.columns)

    def decode_events(self, data: bytes, count: int) -> list[Event]:
        """Deserialize a batch back to row-form events."""
        return list(Event.from_columns(*self.decode_columns(data, count)))

    def encode_rows(self, events: list[Event]) -> bytes:
        """Row-major (NSM) serialization of a batch.

        Exists for the PAX-vs-row ablation: the paper chooses the PAX
        layout inside L-blocks because grouping a column's similar values
        compresses better than interleaved rows (Section 4.2.1).
        """
        return b"".join(self.row.pack(event.t, *event.values) for event in events)


def _pack(char: str, count: int, column) -> bytes:
    if _NATIVE_LE and type(column) is array and column.typecode == char:
        return column.tobytes()
    try:
        return struct.pack(f"<{count}{char}", *column)
    except struct.error as error:
        raise SchemaError(f"unencodable batch: {error}") from error


def unpack_column(char: str, data: memoryview) -> array:
    """Little-endian column bytes as an ``array`` of typecode *char*."""
    # Not ``array(char, data)``: that iterates the bytes one by one.
    column = array(char)
    column.frombytes(data)
    if not _NATIVE_LE:
        column.byteswap()
    return column


def _typed(char: str, column) -> array:
    if type(column) is array and column.typecode == char:
        return column
    return array(char, column)
