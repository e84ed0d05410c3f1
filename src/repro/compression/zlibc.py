"""DEFLATE codec.

Stands in for LZ4 when speed matters: the paper only requires a *fast
LZ-class* codec, and level-1 ``zlib`` (C implementation) is the closest
thing the Python standard library offers.  The pure-Python LZ4 codec in
:mod:`repro.compression.lz4` is format-faithful but orders of magnitude
slower, so benchmarks default to this one (see DESIGN.md).
"""

from __future__ import annotations

import zlib

from repro.compression.base import Compressor, register
from repro.errors import CompressionError


@register
class ZlibCompressor(Compressor):
    """DEFLATE compression at a configurable level (default 1 = fastest)."""

    name = "zlib"

    def __init__(self, level: int = 1):
        if not 0 <= level <= 9:
            raise CompressionError(f"zlib level out of range: {level}")
        self.level = level

    def compress(self, data: bytes) -> bytes:
        return zlib.compress(data, self.level)

    def decompress(self, blob: bytes, original_size: int) -> bytes:
        out = zlib.decompress(blob)
        if len(out) != original_size:
            raise CompressionError(
                f"zlib round-trip size mismatch: {len(out)} != {original_size}"
            )
        return out

    def decompress_prefix(self, blob: bytes, original_size: int, size: int) -> bytes:
        return zlib.decompressobj().decompress(blob, size)


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
