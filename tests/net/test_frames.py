"""Frame codec unit tests: round-trips and malformed-frame rejection.

Everything here is pure codec — no sockets.  Round-trips are
property-based (hypothesis); the rejection cases pin the exact
:class:`ProtocolError` paths a desynchronized or hostile peer hits.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError, SchemaError
from repro.events.event import ColumnarEvents, Event
from repro.events.schema import EventSchema
from repro.events.serializer import PaxCodec
from repro.net import frames

ALL_OPS = sorted(frames._REQUEST_OPS | frames._RESPONSE_OPS)

values = st.floats(allow_nan=False, allow_infinity=False, width=32)
timestamps = st.integers(min_value=-(2**62), max_value=2**62)


# ------------------------------------------------------------- frame header


@settings(max_examples=200, deadline=None)
@given(
    op=st.sampled_from(ALL_OPS),
    corr_id=st.integers(min_value=0, max_value=2**32 - 1),
    payload=st.binary(max_size=512),
)
def test_frame_roundtrip(op, corr_id, payload):
    frame = frames.encode_frame(op, corr_id, payload)
    assert len(frame) == frames.HEADER_SIZE + len(payload)
    got_op, got_corr, got_len = frames.decode_header(
        frame[: frames.HEADER_SIZE]
    )
    assert (got_op, got_corr, got_len) == (op, corr_id, len(payload))
    assert frame[frames.HEADER_SIZE :] == payload


def _header(magic=frames.MAGIC, version=frames.VERSION, op=frames.OP_JSON,
            flags=0, corr_id=0, length=0):
    return frames.HEADER.pack(magic, version, op, flags, corr_id, length)


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        ({"magic": 0x7B}, "bad frame magic"),
        ({"version": 2}, "unsupported frame version"),
        ({"op": 0x7F}, "unknown frame op"),
        ({"flags": 1}, "unsupported frame flags"),
        ({"length": frames.MAX_FRAME + 1}, "exceeds"),
    ],
)
def test_bad_headers_rejected(kwargs, fragment):
    with pytest.raises(ProtocolError, match=fragment):
        frames.decode_header(_header(**kwargs))


def test_oversized_payload_rejected_at_encode():
    class Huge(bytes):
        def __len__(self):
            return frames.MAX_FRAME + 1

    with pytest.raises(ProtocolError, match="exceeds"):
        frames.encode_frame(frames.OP_JSON, 0, Huge())


# ------------------------------------------------------------ batch payload


@settings(max_examples=100, deadline=None)
@given(
    stream=st.text(
        alphabet=st.characters(min_codepoint=33, max_codepoint=126),
        min_size=1,
        max_size=24,
    ),
    rows=st.lists(st.tuples(timestamps, values, values), max_size=64),
)
def test_batch_payload_roundtrip(stream, rows):
    schema = EventSchema.of("a", "b")
    codec = PaxCodec(schema)
    schema_bytes = frames.schema_bytes_of(schema)
    events = [Event(t, (a, b)) for t, a, b in rows]
    ts = [t for t, _, _ in rows]
    columns = [[a for _, a, _ in rows], [b for _, _, b in rows]]
    payload = frames.encode_batch_payload(
        stream, schema_bytes, codec, ColumnarEvents(ts, columns)
    )

    # A list of events transposed at the API boundary encodes to the
    # identical bytes — through the one payload encoder and through
    # ``PaxCodec.encode_events`` — so the zero-copy forwarding invariant
    # does not depend on which shape the caller started from.
    assert payload == frames.encode_batch_payload(
        stream, schema_bytes, codec, ColumnarEvents.of(events, 2)
    )
    assert payload.endswith(codec.encode_events(events))
    assert len(payload) == len(codec.encode_events(events)) + (
        2 + len(stream.encode()) + 2 + len(schema_bytes) + 4
    )

    assert frames.batch_event_count(payload) == len(events)
    got_stream, got_schema, got_ts, got_cols = frames.decode_batch_payload(
        payload
    )
    assert got_stream == stream
    assert got_schema == schema
    assert list(got_ts) == ts
    assert [list(c) for c in got_cols] == columns


def _sample_payload(count=3):
    schema = EventSchema.of("x")
    codec = PaxCodec(schema)
    events = [Event(i, (float(i),)) for i in range(count)]
    return frames.encode_batch_payload(
        "s", frames.schema_bytes_of(schema), codec,
        ColumnarEvents.of(events, schema.arity),
    )


def test_truncated_batch_payload_rejected():
    payload = _sample_payload()
    for cut in (0, 1, 5, len(payload) - 1):
        with pytest.raises(ProtocolError):
            frames.decode_batch_payload(payload[:cut])
    with pytest.raises(ProtocolError):
        frames.batch_event_count(payload[:1])


def test_padded_batch_payload_rejected():
    # Exact-length validation: trailing garbage is a protocol error,
    # not silently ignored (it would desynchronize zero-copy accounting).
    with pytest.raises(ProtocolError, match="length"):
        frames.decode_batch_payload(_sample_payload() + b"\x00")


def test_bad_schema_in_payload_rejected():
    head = frames._BATCH_HEAD
    payload = (
        head.pack(1) + b"s" + head.pack(4) + b"nope"
        + frames._BATCH_COUNT.pack(0)
    )
    with pytest.raises(ProtocolError, match="bad batch schema"):
        frames.decode_batch_payload(payload)


def test_arity_mismatch_rejected():
    schema = EventSchema.of("a", "b")
    codec = PaxCodec(schema)
    with pytest.raises(SchemaError, match="columns"):
        frames.encode_batch_payload(
            "s", frames.schema_bytes_of(schema), codec,
            ColumnarEvents([1, 2], [[1.0, 2.0]]),
        )
