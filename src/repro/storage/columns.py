"""Column-slice reads over PAX-laid-out blocks.

An L-block stores a leaf's payload column-ordered (timestamps first,
then each attribute contiguously — :mod:`repro.events.serializer`), so a
single column of *count* values occupies one contiguous byte range at a
computable offset.  `ColumnSlicer` copies exactly that range into a
typed ``array`` (one ``frombytes``, no per-value object), which is what
lets the columnar scan executor pay only for the attributes a query
filters on or projects, and lets a ``SELECT *`` page reach the wire
encoder as the same typed columns.

Compression granularity is the L-block, so the slice happens after the
block is decompressed; the saving is the per-value decode work (and the
per-row object construction it would feed), not disk bytes.
"""

from __future__ import annotations

from array import array

from repro.errors import CorruptBlockError, StorageError
from repro.events.serializer import unpack_column

#: On-disk size of the timestamp and of every attribute value.
_VALUE_SIZE = 8


class ColumnSlicer:
    """Decode single columns out of fixed-layout PAX payloads.

    Parameters
    ----------
    header_size:
        Bytes preceding the PAX payload in a block (the node header).
    struct_chars:
        One :mod:`struct` format character per attribute column, in
        schema order — also the column's ``array`` typecode.  Timestamps
        are implicit (``q``, column -1).
    """

    def __init__(self, header_size: int, struct_chars: list[str]):
        self.header_size = header_size
        self.struct_chars = list(struct_chars)

    def column_offset(self, count: int, position: int) -> int:
        """Byte offset of attribute column *position* (-1 = timestamps)."""
        return self.header_size + (position + 1) * count * _VALUE_SIZE

    def timestamps(self, block: bytes, count: int) -> array:
        """The timestamp column of a block holding *count* rows, as an
        ``array('q')``."""
        return _slice(block, "q", self.header_size, count)

    def column(self, block: bytes, count: int, position: int) -> array:
        """One attribute column of a block holding *count* rows, as an
        ``array`` of its typecode."""
        if not 0 <= position < len(self.struct_chars):
            raise StorageError(f"no column at position {position}")
        return _slice(block, self.struct_chars[position],
                      self.column_offset(count, position), count)


def _slice(block, char: str, start: int, count: int) -> array:
    end = start + count * _VALUE_SIZE
    if len(block) < end:
        raise CorruptBlockError(
            f"block of {len(block)} bytes cannot hold {count} rows"
        )
    return unpack_column(char, memoryview(block)[start:end])
