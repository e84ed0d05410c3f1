import struct
from array import array

import pytest
from hypothesis import given, strategies as st

from repro.errors import SchemaError
from repro.events import Event, EventSchema, Field, FieldKind, PaxCodec

MIXED = EventSchema([Field("x"), Field("n", FieldKind.I64)])


def test_roundtrip_events():
    codec = PaxCodec(MIXED)
    events = [Event.of(1, 1.5, 7), Event.of(2, -2.25, -1), Event.of(5, 0.0, 0)]
    data = codec.encode_events(events)
    assert len(data) == 3 * MIXED.event_size
    assert codec.decode_events(data, 3) == events


def test_roundtrip_columns():
    codec = PaxCodec(EventSchema.of("a", "b"))
    ts = [10, 20, 30]
    cols = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
    data = codec.encode_columns(ts, cols)
    out_ts, out_cols = codec.decode_columns(data, 3)
    assert isinstance(out_ts, array) and out_ts.typecode == "q"
    assert all(isinstance(c, array) and c.typecode == "d" for c in out_cols)
    assert out_ts.tolist() == ts
    assert [c.tolist() for c in out_cols] == cols


def test_pax_layout_is_columnar():
    # All timestamps come first, then column a, then column b.
    codec = PaxCodec(EventSchema.of("a", "b"))
    data = codec.encode_columns([1, 2], [[0.0, 0.0], [0.0, 0.0]])
    assert struct.unpack_from("<2q", data, 0) == (1, 2)


def test_encode_rejects_wrong_column_count():
    codec = PaxCodec(EventSchema.of("a", "b"))
    with pytest.raises(SchemaError):
        codec.encode_columns([1], [[1.0]])


def test_encode_rejects_ragged_columns():
    codec = PaxCodec(EventSchema.of("a"))
    with pytest.raises(SchemaError):
        codec.encode_columns([1, 2], [[1.0]])


def test_decode_rejects_short_buffer():
    codec = PaxCodec(EventSchema.of("a"))
    with pytest.raises(SchemaError):
        codec.decode_columns(b"\x00" * 8, 2)


def test_single_event_roundtrip():
    codec = PaxCodec(MIXED)
    event = Event.of(42, 3.75, -9)
    data = codec.row.pack(event.t, *event.values)
    assert data == codec.encode_rows([event])
    t, *values = codec.row.unpack(data)
    assert Event(t, tuple(values)) == event


EDGE_F64 = st.sampled_from([float("nan"), -0.0, float("inf"), float("-inf")])
EDGE_I64 = st.sampled_from([2**63 - 1, -(2**63 - 1), 0])


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-(2**62), max_value=2**62),
            st.one_of(st.floats(width=64), EDGE_F64),
            st.one_of(st.integers(min_value=-(2**62), max_value=2**62), EDGE_I64),
        ),
        min_size=1,
        max_size=50,
    )
)
def test_property_roundtrip(rows):
    codec = PaxCodec(MIXED)
    events = [Event(t, (x, n)) for t, x, n in rows]
    data = codec.encode_events(events)
    ts, xs, ns = (list(column) for column in zip(*rows))
    count = len(rows)
    expected = b"".join((
        struct.pack(f"<{count}q", *ts),
        struct.pack(f"<{count}d", *xs),
        struct.pack(f"<{count}q", *ns),
    ))
    # List input and typed input serialize to the same bytes.
    assert data == expected
    assert codec.encode_columns(array("q", ts), [array("d", xs), array("q", ns)]) == expected
    out_ts, out_cols = codec.decode_columns(data, count)
    assert [type(c) for c in (out_ts, *out_cols)] == [array] * 3
    assert [c.typecode for c in (out_ts, *out_cols)] == ["q", "d", "q"]
    # Bytes and repr, not ==: NaN round-trips but never compares equal.
    assert codec.encode_columns(out_ts, out_cols) == expected
    assert repr(codec.decode_events(data, count)) == repr(events)


def test_float_array_for_int_column_is_refused():
    """A typecode check that accepted any array would copy float bits
    into an ``I64`` column."""
    codec = PaxCodec(MIXED)
    with pytest.raises(SchemaError):
        codec.encode_columns(array("q", [1]), [array("d", [1.5]), array("d", [2.0])])
