"""Append-only event logs: the write-ahead log and the mirror log.

Both logs share one framed record format — an LSN (0 for the mirror
log, which is ordered by arrival) plus a fixed-size serialized event,
CRC-protected so replay stops cleanly at a torn tail.  The paper writes
these logs to a separate SSD (Section 7.1); callers pass the matching
simulated device.
"""

from __future__ import annotations

import struct
import zlib
from itertools import repeat
from typing import Iterator

from repro.events.event import ColumnarEvents
from repro.events.serializer import PaxCodec

_RECORD_HEADER = struct.Struct("<IQI")  # payload length, lsn, crc


class EventLog:
    """A sequential, truncatable log of (lsn, event) records."""

    def __init__(self, device, codec: PaxCodec):
        self.device = device
        self.codec = codec
        self._tail = device.size

    def append_many(self, batch: ColumnarEvents, lsns=None) -> None:
        """Group commit: one record per row of *batch*, packed straight
        from the columns with the codec's row struct, in one device
        write — the same bytes as one write per record.  *lsns* parallels
        the rows; ``None`` stamps LSN 0 (the mirror log's arrival order).
        """
        if not batch:
            return
        pack_row = self.codec.row.pack
        pack = _RECORD_HEADER.pack
        crc32 = zlib.crc32
        if lsns is None:
            lsns = repeat(0)
        parts = []
        for t, values, lsn in zip(batch.timestamps, zip(*batch.columns), lsns):
            payload = pack_row(t, *values)
            parts.append(pack(len(payload), lsn, crc32(payload)))
            parts.append(payload)
        buffer = b"".join(parts)
        self.device.write(self._tail, buffer)
        self._tail += len(buffer)

    #: The per-event name, kept for the frozen tracer table (ROADMAP 10(d)).
    append = append_many

    def _records(self) -> Iterator[tuple[int, tuple, int]]:
        """Yield ``(lsn, row, end_offset)`` for every intact record, *row*
        being ``(t, *values)``.

        Stops at the first torn or corrupt frame: a truncated header, a
        length that points past the end of the device, or a payload that
        fails its CRC — the three shapes a partial-sector write can leave
        behind.
        """
        offset = 0
        size = self.device.size
        header_size = _RECORD_HEADER.size
        while offset + header_size <= size:
            length, lsn, crc = _RECORD_HEADER.unpack(
                self.device.read(offset, header_size)
            )
            if offset + header_size + length > size:
                return
            payload = self.device.read(offset + header_size, length)
            if zlib.crc32(payload) != crc:
                return
            offset += header_size + length
            yield lsn, self.codec.row.unpack(payload), offset

    def replay(self) -> Iterator[tuple[int, int, tuple]]:
        """Yield ``(lsn, t, values)`` from the start; stops at a torn
        record."""
        for lsn, row, _ in self._records():
            yield lsn, row[0], row[1:]

    def trim_torn_tail(self) -> int:
        """Discard a torn trailing record after a crash; returns bytes cut.

        Without the trim, appends after recovery would land *behind* the
        torn bytes and be unreachable forever (replay stops at the torn
        record).  Truncating to the last intact frame makes the log
        append-consistent again; the discarded record was never durable,
        so dropping it preserves the durable-prefix invariant.
        """
        end = 0
        for _, _, end_offset in self._records():
            end = end_offset
        discarded = self.device.size - end
        if discarded > 0:
            self.device.truncate(end)
        self._tail = end
        return discarded

    def clear(self) -> None:
        """Discard all records (after a queue flush / checkpoint)."""
        self.device.truncate(0)
        self._tail = 0

    @property
    def size_bytes(self) -> int:
        """Bytes currently in the log (header + payload of every record)."""
        return self._tail
