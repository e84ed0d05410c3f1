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
    assert out_ts == ts
    assert out_cols == cols


def test_pax_layout_is_columnar():
    # All timestamps come first, then column a, then column b.
    codec = PaxCodec(EventSchema.of("a", "b"))
    data = codec.encode_columns([1, 2], [[0.0, 0.0], [0.0, 0.0]])
    import struct

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


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-(2**62), max_value=2**62),
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            st.integers(min_value=-(2**62), max_value=2**62),
        ),
        min_size=1,
        max_size=50,
    )
)
def test_property_roundtrip(rows):
    codec = PaxCodec(MIXED)
    events = [Event(t, (x, n)) for t, x, n in rows]
    assert codec.decode_events(codec.encode_events(events), len(events)) == events
