"""The column-aware (format v3) leaf C-block round-trips every leaf.

A TAB+-tree leaf L-block is compressed as its raw node header, a column
mask, one deflate stream (timestamp deltas and the deflated columns) and
the raw columns.  Whatever the schema, the values (NaN, signed zeros,
infinities, ``int64`` extremes), the timestamps (deltas that wrap, long
runs of one ``t``) or the mask (chosen by the trial, forced either way,
changed between two leaves of one split), decoding with a fresh codec
gives back the exact L-block, and the header is read without inflating
anything.  Index nodes, tombstones and a leaf with stray bytes after its
last column stay whole deflate streams.

What is deflated depends on ``uint64`` wrap-around only: the wrapping
deltas are pinned byte for byte, on every interpreter CI runs.
"""

import math
import random
import struct
import zlib
from array import array
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.compression import available_codecs, get_compressor
from repro.compression import zlibc
from repro.compression.zlibc import (
    LEAF_HEADER_SIZE,
    LEAF_MAGIC,
    TRIAL_INTERVAL,
    TRIAL_MIN_ROWS,
    ZlibCompressor,
)
from repro.events import EventSchema, Field, FieldKind
from repro.index.entry import IndexEntry
from repro.index.node import (
    MAGIC_LEAF,
    NODE_HEADER_SIZE,
    IndexNode,
    LeafNode,
    NodeCodec,
)

LBLOCK = 4096
I64_MIN, I64_MAX = -(2**63), 2**63 - 1

I64 = st.one_of(
    st.integers(I64_MIN, I64_MAX),
    st.sampled_from([I64_MIN, I64_MAX, 0, -1]),
)
F64 = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, -math.nan, 0.0, -0.0, math.inf, -math.inf,
                     5e-324, 1.7976931348623157e308]),
)


def _timestamps(count):
    """Arbitrary, wrapping (int64 min <-> max) or long equal-``t`` runs."""
    wrapping = st.just([I64_MIN if i % 2 else I64_MAX for i in range(count)])
    runs = st.lists(
        st.tuples(st.integers(I64_MIN, I64_MAX), st.integers(1, count or 1)),
        min_size=1, max_size=4,
    ).map(lambda parts: sorted(t for t, n in parts for _ in range(n))[:count])
    runs = runs.filter(lambda ts: len(ts) == count)
    anything = st.lists(st.integers(I64_MIN, I64_MAX), min_size=count,
                        max_size=count)
    return st.one_of(wrapping, runs, anything)


@st.composite
def leaves(draw, min_count=0):
    """``(arity, L-block)`` of a leaf with a random I64/F64 schema."""
    kinds = draw(st.lists(st.sampled_from([FieldKind.I64, FieldKind.F64]),
                          min_size=1, max_size=8))
    schema = EventSchema([Field(f"c{k}", kind) for k, kind in enumerate(kinds)])
    codec = NodeCodec(schema, LBLOCK)
    count = draw(st.integers(min(min_count, codec.leaf_capacity),
                             codec.leaf_capacity))
    timestamps = draw(_timestamps(count))
    columns = [
        array(kind.struct_char,
              draw(st.lists(I64 if kind is FieldKind.I64 else F64,
                            min_size=count, max_size=count)))
        for kind in kinds
    ]
    node_id = draw(st.integers(0, 2**40))
    leaf = LeafNode(node_id, node_id - 1, node_id + 1,
                    lsn=draw(st.integers(0, 2**64 - 1)),
                    flags=draw(st.integers(0, 255)),
                    timestamps=array("q", timestamps), columns=columns)
    return len(kinds), codec.encode_leaf(leaf)


class _CountingZlib:
    """``zlib`` as the codec sees it, counting every inflate."""

    def __init__(self):
        self.inflates = 0

    def __getattr__(self, name):
        return getattr(zlib, name)

    def decompress(self, *args):
        self.inflates += 1
        return zlib.decompress(*args)

    def decompressobj(self, *args):
        self.inflates += 1
        return zlib.decompressobj(*args)


def _mask_of(blob, arity):
    size = (arity + 7) // 8
    return int.from_bytes(blob[LEAF_HEADER_SIZE + 2 : LEAF_HEADER_SIZE + 2 + size],
                          "little")


def _assert_round_trip(blob, block):
    assert blob[:4] == LEAF_MAGIC
    assert blob[:LEAF_HEADER_SIZE] == block[:LEAF_HEADER_SIZE]
    fresh = ZlibCompressor()  # decoding needs no state
    counting = _CountingZlib()
    with mock.patch.object(zlibc, "zlib", counting):
        header = fresh.decompress_prefix(blob, len(block), NODE_HEADER_SIZE)
    assert header == block[:NODE_HEADER_SIZE]
    assert counting.inflates == 0
    assert fresh.decompress(blob, len(block)) == block


SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.data_too_large])


@SETTINGS
@given(leaves())
def test_trial_chosen_mask_round_trips(leaf):
    arity, block = leaf
    codec = ZlibCompressor()
    codec.set_leaf_columns(arity)
    _assert_round_trip(codec.compress(block), block)


@SETTINGS
@given(leaves(), st.data())
def test_forced_mask_round_trips(leaf, data):
    arity, block = leaf
    mask = data.draw(st.one_of(st.sampled_from([0, 2**arity - 1]),
                               st.integers(0, 2**arity - 1)))
    codec = ZlibCompressor()
    codec.set_leaf_columns(arity)
    codec.raw_mask, codec.leaves_since_trial = mask, 0
    blob = codec.compress(block)
    count = int.from_bytes(block[4:6], "little")
    assert _mask_of(blob, arity) == (mask if count >= TRIAL_MIN_ROWS else 0)
    _assert_round_trip(blob, block)


@SETTINGS
@given(leaves(min_count=TRIAL_MIN_ROWS), st.data())
def test_mask_change_mid_split_round_trips(leaf, data):
    arity, block = leaf
    codec = ZlibCompressor()
    codec.set_leaf_columns(arity)
    blobs = []
    for mask in data.draw(st.lists(st.integers(0, 2**arity - 1), min_size=2,
                                   max_size=3, unique=True)):
        codec.raw_mask, codec.leaves_since_trial = mask, 0
        blob = codec.compress(block)
        assert _mask_of(blob, arity) == mask
        blobs.append(blob)
    for blob in blobs:
        _assert_round_trip(blob, block)


def test_recheck_follows_the_data():
    """A column that turns from noise into a smooth series is deflated
    again from the first trial after the change."""
    schema = EventSchema.of("smooth", "changing")
    node_codec = NodeCodec(schema, LBLOCK)
    count = node_codec.leaf_capacity
    rng = random.Random(5)
    codec = ZlibCompressor()
    codec.set_leaf_columns(2)
    masks, blobs = [], []
    for n in range(2 * TRIAL_INTERVAL):
        changing = array("d")
        if n < TRIAL_INTERVAL // 2:
            changing.frombytes(rng.randbytes(count * 8))
        else:
            changing.extend(float(i % 7) for i in range(count))
        leaf = LeafNode(n, timestamps=array("q", range(count)),
                        columns=[array("d", [float(i) for i in range(count)]),
                                 changing])
        block = node_codec.encode_leaf(leaf)
        blob = codec.compress(block)
        masks.append(_mask_of(blob, 2))
        blobs.append((blob, block))
    assert masks == [0b10] * TRIAL_INTERVAL + [0] * TRIAL_INTERVAL
    for blob, block in blobs[:: TRIAL_INTERVAL // 4]:
        _assert_round_trip(blob, block)


def test_wrapping_deltas_are_the_stored_bytes():
    """The deflate stream starts with ``t[i] - t[i-1] mod 2**64`` (``t[-1]``
    = 0) as little-endian ``uint64``, on every interpreter."""
    timestamps = [I64_MAX, I64_MIN, 0, -1, I64_MIN, I64_MAX] * 8
    count = len(timestamps)
    node_codec = NodeCodec(EventSchema.of("x"), LBLOCK)
    leaf = LeafNode(3, timestamps=array("q", timestamps),
                    columns=[array("d", [0.5] * count)])
    block = node_codec.encode_leaf(leaf)
    codec = ZlibCompressor()
    codec.set_leaf_columns(1)
    codec.raw_mask, codec.leaves_since_trial = 0, 0
    blob = codec.compress(block)
    packed = zlib.decompress(blob[LEAF_HEADER_SIZE + 3 :])  # arity 1: 1 mask byte
    previous = [0] + timestamps[:-1]
    deltas = [(t - p) % 2**64 for t, p in zip(timestamps, previous)]
    assert packed == struct.pack(f"<{count}Q", *deltas) + struct.pack(
        f"<{count}d", *leaf.columns[0]
    )
    _assert_round_trip(blob, block)


def _leaf_block(arity=2, count=50):
    schema = EventSchema.of(*(f"c{k}" for k in range(arity)))
    codec = NodeCodec(schema, LBLOCK)
    leaf = LeafNode(7, timestamps=array("q", range(count)),
                    columns=[array("d", [float(i % 5)] * count)
                             for i in range(arity)])
    return codec, codec.encode_leaf(leaf)


def test_whole_block_paths():
    node_codec, leaf = _leaf_block()
    codec = ZlibCompressor()
    codec.set_leaf_columns(2)
    index = node_codec.encode_index(
        IndexNode(9, 1, entries=[IndexEntry(7, 0, 49, 50, [(0, 4, 100)] * 2)])
    )
    stray = leaf[:-1] + b"\x01"  # a byte after the last column
    overfull = leaf[:4] + struct.pack("<H", 0xFFFF) + leaf[6:]
    for block in (index, b"", stray, overfull):
        blob = codec.compress(block)
        assert blob == zlib.compress(block, 1)
        assert codec.decompress(blob, len(block)) == block
    # No arity: leaves too are deflated whole.
    assert ZlibCompressor().compress(leaf) == zlib.compress(leaf, 1)


def test_leaf_constants_match_the_node_format():
    assert LEAF_MAGIC == struct.pack("<I", MAGIC_LEAF)
    assert LEAF_HEADER_SIZE == NODE_HEADER_SIZE


def test_other_codecs_compress_leaves_whole():
    _, leaf = _leaf_block()
    for name in available_codecs():
        if name in ("zlib", "zlib9"):
            continue
        codec, plain = get_compressor(name), get_compressor(name)
        codec.set_leaf_columns(2)
        assert codec.compress(leaf) == plain.compress(leaf)


def test_trial_stores_noise_raw_and_deflates_the_rest():
    schema = EventSchema.of("smooth", "noise", "steps")
    node_codec = NodeCodec(schema, LBLOCK)
    count = node_codec.leaf_capacity
    noise = array("d")
    noise.frombytes(random.Random(3).randbytes(count * 8))
    leaf = LeafNode(1, timestamps=array("q", range(0, 10 * count, 10)),
                    columns=[array("d", [i / 100 for i in range(count)]),
                             noise,
                             array("d", [float(i % 13) for i in range(count)])])
    block = node_codec.encode_leaf(leaf)
    codec = ZlibCompressor()
    codec.set_leaf_columns(3)
    blob = codec.compress(block)
    assert _mask_of(blob, 3) == 0b010
    assert blob.endswith(noise.tobytes())
    assert len(blob) < len(zlib.compress(block, 1))
    _assert_round_trip(blob, block)
