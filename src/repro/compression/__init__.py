"""Lossless block compression codecs.

The paper uses LZ4 ("the main objective is write-optimization, thus we
focused on fast compression with reasonable compression rate ... but any
other would be possible").  The layout only depends on compressed *sizes*,
so codecs are pluggable:

* ``lz4``    — a pure-Python implementation of the LZ4 block format
               (bit-compatible with the reference ``lz4.block`` codec).
* ``zlib``   — DEFLATE at level 1; the fast C-backed default for benchmarks.
               In a format-v3 file it writes TAB+-tree leaves column-aware:
               raw node header, timestamp deltas and the columns that
               compress in one deflate call, noise columns raw (DESIGN.md
               "File format versions"); every other block is deflated whole.
* ``none``   — identity codec.
* ``oracle`` — fixed compression-rate codec used to reproduce Figure 9's
               "hypothetical compression rate" sweep.
* ``delta-zlib`` — word-wise delta transform (Gorilla-style [29]) before
               DEFLATE; boosts compression of slowly-changing PAX columns.
               Kept although v3 leaves delta-code timestamps themselves:
               the warm tier's superblocks name ``delta-zlib9``.

Only the zlib codecs lay leaves out by column (:meth:`Compressor.set_leaf_columns`);
the others compress every block whole.
"""

from repro.compression.base import Compressor, available_codecs, get_compressor
from repro.compression.delta import DeltaZlib9Compressor, DeltaZlibCompressor
from repro.compression.lz4 import Lz4Compressor
from repro.compression.nonec import NoneCompressor
from repro.compression.oracle import OracleCompressor
from repro.compression.zlibc import Zlib9Compressor, ZlibCompressor

__all__ = [
    "Compressor",
    "DeltaZlib9Compressor",
    "DeltaZlibCompressor",
    "Lz4Compressor",
    "NoneCompressor",
    "OracleCompressor",
    "Zlib9Compressor",
    "ZlibCompressor",
    "available_codecs",
    "get_compressor",
]
