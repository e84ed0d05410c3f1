"""DEFLATE codec.

Stands in for LZ4 when speed matters: the paper only requires a *fast
LZ-class* codec, and level-1 ``zlib`` (C implementation) is the closest
thing the Python standard library offers.  The pure-Python LZ4 codec in
:mod:`repro.compression.lz4` is format-faithful but orders of magnitude
slower, so benchmarks default to this one (see DESIGN.md).

Column-aware leaves (format v3, DESIGN.md "File format versions").  Once
told how many attribute columns a leaf holds (:meth:`set_leaf_columns`,
which a v3 layout calls), the codec writes a TAB+-tree leaf L-block
(header, then PAX columns, then zeros) as four parts::

    node header (40 bytes, raw) | u16 arity | column mask (bit k: raw)
    | deflate(timestamp deltas + deflated columns) | raw columns

Timestamps go in as wrapping ``uint64`` deltas; a column whose level-1
trial deflate keeps more than :data:`RAW_RATIO` of its bytes is stored
raw, since deflating noise costs time and saves nothing.  The mask is
chosen by a trial on the first leaf of a split and re-checked every
:data:`TRIAL_INTERVAL` leaves.  Decoding needs no state: the header's
row count, the arity and the mask lay the exact L-block out again.
Every other block (index nodes, a leaf whose bytes after its last column
are not all zero, any block while no arity is set) is deflated whole, so
the codec stays lossless for every input.  A whole-block stream starts
with the zlib header byte ``0x78``, a leaf payload with the node magic,
which is how :meth:`decompress` tells them apart.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.compression.base import Compressor, register
from repro.errors import CompressionError

#: ``repro.index.node.MAGIC_LEAF`` as stored (little-endian "TBLF").
LEAF_MAGIC = b"TBLF"
#: ``repro.index.node.NODE_HEADER_SIZE``: the header, whose bytes 4–5
#: hold the leaf's row count, stays outside the deflate stream.
LEAF_HEADER_SIZE = 40
#: Leaves between two column trials of one split.
TRIAL_INTERVAL = 64
#: A column whose level-1 trial keeps more than this share of its bytes
#: is stored raw.
RAW_RATIO = 0.9
#: Fewer rows than this say too little about a column to decide on.
TRIAL_MIN_ROWS = 32

_ARITY = struct.Struct("<H")
_VALUE_SIZE = 8


@register
class ZlibCompressor(Compressor):
    """DEFLATE compression at a configurable level (default 1 = fastest)."""

    name = "zlib"

    def __init__(self, level: int = 1):
        if not 0 <= level <= 9:
            raise CompressionError(f"zlib level out of range: {level}")
        self.level = level
        #: Attribute columns per leaf; ``None`` compresses every block whole.
        self.leaf_columns: int | None = None
        #: Bit *k* set: attribute column *k* is stored raw (``None``: no
        #: trial yet).
        self.raw_mask: int | None = None
        #: Leaves encoded with the current mask.
        self.leaves_since_trial = 0

    def set_leaf_columns(self, arity: int) -> None:
        self.leaf_columns = arity
        self.raw_mask = None

    def compress(self, data: bytes) -> bytes:
        if self.leaf_columns is not None and data[:4] == LEAF_MAGIC:
            blob = self._compress_leaf(data, self.leaf_columns)
            if blob is not None:
                return blob
        return zlib.compress(data, self.level)

    def decompress(self, blob: bytes, original_size: int) -> bytes:
        if blob[:4] == LEAF_MAGIC:
            out = _decompress_leaf(blob, original_size)
        else:
            out = zlib.decompress(blob)
        if len(out) != original_size:
            raise CompressionError(
                f"zlib round-trip size mismatch: {len(out)} != {original_size}"
            )
        return out

    def decompress_prefix(self, blob: bytes, original_size: int, size: int) -> bytes:
        if blob[:4] == LEAF_MAGIC:
            if size <= LEAF_HEADER_SIZE:
                return bytes(blob[:size])  # the raw header: nothing to inflate
            return self.decompress(blob, original_size)[:size]
        return zlib.decompressobj().decompress(blob, size)

    # ------------------------------------------------------- v3 leaf blocks

    def _compress_leaf(self, data: bytes, arity: int) -> bytes | None:
        """The column-aware payload of leaf *data*, or ``None`` when its
        bytes after the last column are not all zero."""
        count = int.from_bytes(data[4:6], "little")
        width = count * _VALUE_SIZE
        end = LEAF_HEADER_SIZE + (arity + 1) * width
        if end > len(data) or data.count(0, end) != len(data) - end:
            return None
        view = memoryview(data)
        if count < TRIAL_MIN_ROWS:
            mask = 0
        else:
            if self.raw_mask is None or self.leaves_since_trial >= TRIAL_INTERVAL:
                self.raw_mask = self._trial(view, width, arity)
                self.leaves_since_trial = 0
            self.leaves_since_trial += 1
            mask = self.raw_mask
        timestamps = np.frombuffer(data, "<u8", count, LEAF_HEADER_SIZE)
        deltas = timestamps.copy()
        deltas[1:] -= timestamps[:-1]  # wraps mod 2**64
        packed, raw = [deltas], []
        start = LEAF_HEADER_SIZE + width
        for k in range(arity):
            (raw if mask >> k & 1 else packed).append(view[start : start + width])
            start += width
        return b"".join([
            view[:LEAF_HEADER_SIZE],
            _ARITY.pack(arity),
            mask.to_bytes(_mask_size(arity), "little"),
            zlib.compress(b"".join(packed), self.level),
            *raw,
        ])

    def _trial(self, view: memoryview, width: int, arity: int) -> int:
        """The raw-column mask for the leaf in *view*: one level-1
        deflate per attribute column."""
        mask = 0
        start = LEAF_HEADER_SIZE + width
        for k in range(arity):
            column = view[start : start + width]
            if len(zlib.compress(column, 1)) > RAW_RATIO * width:
                mask |= 1 << k
            start += width
        return mask


def _mask_size(arity: int) -> int:
    return (arity + 7) // 8


def _decompress_leaf(blob: bytes, original_size: int) -> bytes:
    """The L-block a column-aware leaf payload encodes (inverse of
    :meth:`ZlibCompressor._compress_leaf`)."""
    view = memoryview(blob)
    count = int.from_bytes(blob[4:6], "little")
    width = count * _VALUE_SIZE
    (arity,) = _ARITY.unpack_from(blob, LEAF_HEADER_SIZE)
    mask_start = LEAF_HEADER_SIZE + _ARITY.size
    mask_end = mask_start + _mask_size(arity)
    mask = int.from_bytes(blob[mask_start:mask_end], "little")
    raw_start = len(blob) - mask.bit_count() * width
    if raw_start < mask_end:
        raise CompressionError("zlib leaf payload is truncated")
    packed = zlib.decompress(view[mask_end:raw_start])
    if len(packed) != (arity + 1 - mask.bit_count()) * width:
        raise CompressionError("zlib leaf payload does not match its header")
    pad = original_size - LEAF_HEADER_SIZE - (arity + 1) * width
    if pad < 0:
        raise CompressionError("zlib leaf payload exceeds its L-block")
    packed = memoryview(packed)
    deltas = np.frombuffer(packed, "<u8", count)
    timestamps = np.add.accumulate(deltas).astype("<u8", copy=False)  # wraps
    parts = [view[:LEAF_HEADER_SIZE], timestamps]
    at_packed, at_raw = width, raw_start
    for k in range(arity):
        if mask >> k & 1:
            parts.append(view[at_raw : at_raw + width])
            at_raw += width
        else:
            parts.append(packed[at_packed : at_packed + width])
            at_packed += width
    parts.append(bytes(pad))
    return b"".join(parts)


@register
class Zlib9Compressor(ZlibCompressor):
    """DEFLATE at maximum effort, for cold-path re-compression.

    A distinct registry name, not a constructor argument: the layout
    superblock records only the codec *name*, so a level must be part of
    the name to survive a close/reopen (repro.lifecycle warm tier).
    """

    name = "zlib9"

    def __init__(self):
        super().__init__(level=9)
