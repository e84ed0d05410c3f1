"""TAB+-tree node formats.

Both node kinds fit exactly one L-block and carry sibling links in both
directions at every level (paper, Section 5.2.1) plus an LSN for the
out-of-order write-ahead log (Section 5.7).  Leaves store events in PAX
layout; index nodes store :class:`~repro.index.entry.IndexEntry` records.

Node header (40 bytes)::

    u32 magic ("TBLF" leaf / "TBIX" index)
    u16 count | u8 level | u8 flags
    u64 lsn | i64 self_id | i64 prev_id | i64 next_id
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass, field

from repro.errors import CorruptBlockError, SchemaError
from repro.events.schema import EventSchema
from repro.events.serializer import PaxCodec
from repro.index.entry import IndexEntry
from repro.storage.columns import ColumnSlicer

MAGIC_LEAF = 0x464C4254  # "TBLF"
MAGIC_INDEX = 0x58494254  # "TBIX"
NODE_HEADER_SIZE = 40
NO_NODE = -1

#: Node flag: this block was split/relocated; secondary-index references
#: to it must fall back to a timestamp search (paper, Section 5.7.2).
FLAG_SPLIT = 1

NODE_HEADER = struct.Struct("<IHBBQqqq")


@dataclass
class LeafNode:
    """A decoded leaf: events in columnar form.

    The tree's leaves hold one typed ``array`` per column (the schema's
    typecodes, :meth:`PaxCodec.typed`), so bulk appends extend them with a
    ``memcpy`` and the L-block serializes with ``tobytes``.
    """

    node_id: int
    prev_id: int = NO_NODE
    next_id: int = NO_NODE
    lsn: int = 0
    flags: int = 0
    timestamps: list[int] = field(default_factory=list)
    columns: list[list] = field(default_factory=list)

    level = 0  # leaves are level 0 by definition
    is_lazy = False

    @property
    def count(self) -> int:
        return len(self.timestamps)

    @property
    def t_min(self) -> int:
        return self.timestamps[0]

    @property
    def t_max(self) -> int:
        return self.timestamps[-1]

    def column(self, position: int) -> list:
        """Interface parity with :class:`LeafView` (already decoded)."""
        return self.columns[position]


class LeafView:
    """A lazily decoded leaf: timestamps now, attribute columns on demand.

    The columnar scan executor fetches leaves as raw (decompressed)
    L-block bytes and wraps them in this view.  Timestamps decode
    eagerly — every scan needs them to cut the time range — but each
    attribute column is sliced out of the PAX payload only on first
    access (:class:`~repro.storage.columns.ColumnSlicer`), so a leaf
    whose rows are all filtered away never decodes its projection
    columns at all.  Like a :class:`LeafNode`'s, its columns are typed
    ``array`` objects.

    ``on_decode(n)`` is called with the number of values decoded by each
    column slice, letting the tree count values decoded on the clock and
    the planner count decoded columns.
    """

    __slots__ = ("node_id", "prev_id", "next_id", "lsn", "flags", "count",
                 "timestamps", "_data", "_slicer", "_cache", "on_decode",
                 "columns_decoded")

    level = 0  # leaf-like for traversal purposes
    is_lazy = True

    def __init__(self, slicer: ColumnSlicer, data: bytes, header: tuple,
                 on_decode=None):
        magic, count, _level, flags, lsn, node_id, prev_id, next_id = header
        self.node_id = node_id
        self.prev_id = prev_id
        self.next_id = next_id
        self.lsn = lsn
        self.flags = flags
        self.count = count
        self._data = data
        self._slicer = slicer
        self._cache: dict[int, array] = {}
        self.on_decode = on_decode
        self.columns_decoded = 0
        self.timestamps = slicer.timestamps(data, count)
        if on_decode is not None:
            on_decode(count)

    @property
    def t_min(self) -> int:
        return self.timestamps[0]

    @property
    def t_max(self) -> int:
        return self.timestamps[-1]

    def column(self, position: int) -> array:
        cached = self._cache.get(position)
        if cached is None:
            cached = self._slicer.column(self._data, self.count, position)
            self._cache[position] = cached
            self.columns_decoded += 1
            if self.on_decode is not None:
                self.on_decode(self.count)
        return cached


@dataclass
class IndexNode:
    """A decoded index node: child summaries."""

    node_id: int
    level: int
    prev_id: int = NO_NODE
    next_id: int = NO_NODE
    lsn: int = 0
    flags: int = 0
    entries: list[IndexEntry] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.entries)

    @property
    def t_min(self) -> int:
        return self.entries[0].t_min

    @property
    def t_max(self) -> int:
        return self.entries[-1].t_max


class NodeCodec:
    """Serialize tree nodes into fixed-size L-blocks.

    *indexed* names the attributes whose aggregates are materialized in
    index entries; fewer indexed attributes mean higher fan-out (this is
    the trade-off Figure 11 measures).
    """

    def __init__(
        self,
        schema: EventSchema,
        lblock_size: int,
        indexed: list[str] | None = None,
        extended_aggregates: bool = False,
    ):
        self.schema = schema
        self.lblock_size = lblock_size
        names = schema.names if indexed is None else tuple(indexed)
        self.indexed_positions = [schema.index_of(n) for n in names]
        self.indexed_names = tuple(names)
        self.extended_aggregates = extended_aggregates
        self._agg_width = 4 if extended_aggregates else 3
        self.pax = PaxCodec(schema)
        self._slicer = ColumnSlicer(
            NODE_HEADER_SIZE, [f.kind.struct_char for f in schema.fields]
        )
        self.leaf_capacity = (lblock_size - NODE_HEADER_SIZE) // schema.event_size
        # child_id, t_min, t_max, count + (min, max, sum[, sum_sq]) per
        # indexed attribute.
        self.entry_size = 32 + 8 * self._agg_width * len(self.indexed_positions)
        self._entry = struct.Struct(
            f"<qqqQ{self._agg_width * len(self.indexed_positions)}d"
        )
        self.index_capacity = (lblock_size - NODE_HEADER_SIZE) // self.entry_size
        if self.leaf_capacity < 2 or self.index_capacity < 2:
            raise SchemaError(
                f"L-block size {lblock_size} too small for schema {schema!r}"
            )

    # -------------------------------------------------------------- encoding

    def encode_leaf(self, leaf: LeafNode) -> bytes:
        if leaf.count > self.leaf_capacity:
            raise SchemaError(
                f"leaf holds {leaf.count} events, capacity {self.leaf_capacity}"
            )
        out = bytearray(self.lblock_size)
        NODE_HEADER.pack_into(
            out, 0, MAGIC_LEAF, leaf.count, 0, leaf.flags, leaf.lsn,
            leaf.node_id, leaf.prev_id, leaf.next_id,
        )
        payload = self.pax.encode_columns(leaf.timestamps, leaf.columns)
        out[NODE_HEADER_SIZE : NODE_HEADER_SIZE + len(payload)] = payload
        return bytes(out)

    def encode_index(self, node: IndexNode) -> bytes:
        if node.count > self.index_capacity:
            raise SchemaError(
                f"index node holds {node.count} entries, capacity"
                f" {self.index_capacity}"
            )
        out = bytearray(self.lblock_size)
        NODE_HEADER.pack_into(
            out, 0, MAGIC_INDEX, node.count, node.level, node.flags, node.lsn,
            node.node_id, node.prev_id, node.next_id,
        )
        offset = NODE_HEADER_SIZE
        agg_format = f"<{self._agg_width}d"
        agg_bytes = 8 * self._agg_width
        for entry in node.entries:
            struct.pack_into("<qqqQ", out, offset, entry.child_id, entry.t_min,
                             entry.t_max, entry.count)
            offset += 32
            for agg in entry.aggs:
                struct.pack_into(agg_format, out, offset, *agg)
                offset += agg_bytes
        return bytes(out)

    def encode(self, node) -> bytes:
        if isinstance(node, LeafNode):
            return self.encode_leaf(node)
        return self.encode_index(node)

    # -------------------------------------------------------------- decoding

    def decode(self, data: bytes):
        """Decode an L-block into a :class:`LeafNode` or :class:`IndexNode`."""
        magic, count, level, flags, lsn, node_id, prev_id, next_id = (
            NODE_HEADER.unpack_from(data)
        )
        if magic == MAGIC_LEAF:
            timestamps, columns = self.pax.decode_columns(
                memoryview(data)[NODE_HEADER_SIZE:], count
            )
            return LeafNode(node_id, prev_id, next_id, lsn, flags,
                            timestamps, columns)
        if magic == MAGIC_INDEX:
            entries = self._decode_entries(data, count)
            return IndexNode(node_id, level, prev_id, next_id, lsn, flags, entries)
        raise CorruptBlockError(f"not a TAB+-tree node (magic {magic:#x})")

    def _decode_entries(self, data: bytes, count: int) -> list[IndexEntry]:
        """The *count* index entries after the node header, one
        ``iter_unpack`` over the entry array."""
        if count > self.index_capacity:
            raise CorruptBlockError(f"index node claims {count} entries")
        width = self._agg_width
        end = 4 + width * len(self.indexed_positions)
        start = NODE_HEADER_SIZE
        return [
            IndexEntry(
                v[0], v[1], v[2], v[3],
                [v[i : i + width] for i in range(4, end, width)],
            )
            for v in self._entry.iter_unpack(
                data[start : start + count * self.entry_size]
            )
        ]

    def leaf_view(self, data: bytes, on_decode=None):
        """Decode an L-block into a lazy :class:`LeafView` when possible.

        Index blocks (or anything that is not a leaf) fall back to
        :meth:`decode` so callers can treat this as a drop-in fetch.
        """
        header = NODE_HEADER.unpack_from(data)
        if header[0] != MAGIC_LEAF:
            return self.decode(data)
        return LeafView(self._slicer, data, header, on_decode)

    def indexed_values(self, values: tuple) -> list[float]:
        """Project an event's values onto the indexed attributes."""
        return [float(values[i]) for i in self.indexed_positions]
