from array import array

import pytest

from repro.errors import CorruptBlockError, SchemaError
from repro.events import EventSchema
from repro.index.entry import IndexEntry
from repro.index.node import (
    FLAG_SPLIT,
    IndexNode,
    LeafNode,
    NO_NODE,
    NodeCodec,
)

SCHEMA = EventSchema.of("x", "y")
LBLOCK = 512


def make_codec(indexed=None):
    return NodeCodec(SCHEMA, LBLOCK, indexed)


def test_capacities():
    codec = make_codec()
    assert codec.leaf_capacity == (512 - 40) // 24
    assert codec.entry_size == 32 + 24 * 2
    assert codec.index_capacity == (512 - 40) // 80


def test_fewer_indexed_attributes_increase_fanout():
    # The Figure-11 trade-off: aggregates shrink fan-out.
    assert make_codec(["x"]).index_capacity > make_codec().index_capacity
    assert make_codec([]).index_capacity > make_codec(["x"]).index_capacity


def test_leaf_roundtrip():
    codec = make_codec()
    leaf = LeafNode(
        node_id=5, prev_id=4, next_id=6, lsn=9, flags=FLAG_SPLIT,
        timestamps=[1, 2, 3],
        columns=[[1.0, 2.0, 3.0], [9.0, 8.0, 7.0]],
    )
    out = codec.decode(codec.encode_leaf(leaf))
    assert isinstance(out, LeafNode)
    assert isinstance(out.timestamps, array) and out.timestamps.typecode == "q"
    assert all(isinstance(c, array) and c.typecode == "d" for c in out.columns)
    assert (out.node_id, out.prev_id, out.next_id, out.lsn, out.flags) == (
        5, 4, 6, 9, FLAG_SPLIT
    )
    assert out.timestamps.tolist() == leaf.timestamps
    assert [c.tolist() for c in out.columns] == leaf.columns
    assert out.t_min == 1 and out.t_max == 3


def test_index_roundtrip():
    codec = make_codec()
    node = IndexNode(
        node_id=10, level=2, prev_id=NO_NODE, next_id=11, lsn=3,
        entries=[
            IndexEntry(1, 0, 9, 10, [(0.0, 5.0, 20.0), (1.0, 2.0, 15.0)]),
            IndexEntry(2, 10, 19, 10, [(-1.0, 4.0, 12.0), (0.5, 2.5, 14.0)]),
        ],
    )
    out = codec.decode(codec.encode_index(node))
    assert isinstance(out, IndexNode)
    assert out.level == 2
    assert out.entries == node.entries
    assert out.t_min == 0 and out.t_max == 19


def test_leaf_overflow_rejected():
    codec = make_codec()
    n = codec.leaf_capacity + 1
    leaf = LeafNode(
        node_id=0, timestamps=list(range(n)),
        columns=[[0.0] * n, [0.0] * n],
    )
    with pytest.raises(SchemaError):
        codec.encode_leaf(leaf)


def test_decode_rejects_garbage():
    codec = make_codec()
    with pytest.raises(CorruptBlockError):
        codec.decode(bytes(LBLOCK))


def test_block_too_small_rejected():
    with pytest.raises(SchemaError):
        NodeCodec(SCHEMA, 64)


def test_indexed_values_projection():
    codec = make_codec(["y"])
    assert codec.indexed_values((3.0, 7.0)) == [7.0]


def test_entry_merge_and_combine():
    a = IndexEntry(1, 0, 5, 3, [(1.0, 3.0, 6.0)])
    b = IndexEntry(2, 6, 9, 2, [(0.5, 2.0, 2.5)])
    combined = IndexEntry.combine(99, [a, b])
    assert combined.child_id == 99
    assert combined.t_min == 0 and combined.t_max == 9
    assert combined.count == 5
    assert combined.aggs == [(0.5, 3.0, 8.5)]


def test_entry_add_value():
    entry = IndexEntry(1, 5, 10, 2, [(1.0, 2.0, 3.0)])
    entry.add_value(3, [5.0])
    assert entry.t_min == 3
    assert entry.count == 3
    assert entry.aggs == [(1.0, 5.0, 8.0)]
