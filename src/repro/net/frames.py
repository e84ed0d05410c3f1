"""Binary wire frames: length-prefixed, correlation-id'd, columnar.

Frame layout (12-byte header, little-endian)::

    offset  size  field
    0       1     magic        0xCB
    1       1     version      1
    2       1     op           request/response opcode
    3       1     flags        reserved, must be 0
    4       4     corr_id      u32 correlation id (pipelining)
    8       4     payload_len  u32 payload byte count
    12      n     payload

Every op that moves events (``append_batch``, ``replicate_batch``,
catch-up and ``SELECT *`` replies, subscription pushes) carries a
**columnar batch payload** that reuses the PAX serializer: the stream
name, the schema (JSON, a few dozen bytes), and the event count,
followed by the timestamps and each attribute column as packed structs.
The payload is self-describing, so a primary forwards the *identical
payload bytes* it received to its replicas (zero-copy replication) and a
replica that missed the stream's creation can still apply it.  Every
other op is a control op: a JSON request dict inside an ``OP_JSON``
frame.

There is one encoder, :func:`encode_batch_payload`, and it takes the
one batch type, :class:`~repro.events.event.ColumnarEvents` — client
appends, replication, catch-up and ``SELECT *`` replies and
subscription pushes all build their payload with it.  A batch the
schema cannot hold raises :class:`~repro.errors.SchemaError` on the
sender's side (an application error, never a broken connection); the
decoder raises :class:`~repro.errors.ProtocolError` for malformed bytes.
"""

from __future__ import annotations

import json
import struct

from repro.errors import ProtocolError
from repro.events.event import ColumnarEvents
from repro.events.schema import VALUE_SIZE, EventSchema
from repro.events.serializer import PaxCodec

MAGIC = 0xCB
VERSION = 1
HEADER = struct.Struct("<BBBBII")
HEADER_SIZE = HEADER.size

#: Upper bound on a frame payload; bigger lengths are a protocol
#: violation (a desynchronized or hostile peer), not a request error.
MAX_FRAME = 64 * 1024 * 1024

# Request opcodes.
OP_JSON = 0x01  # payload: JSON request dict (control ops)
OP_APPEND_BATCH = 0x02  # payload: columnar batch
OP_REPLICATE_BATCH = 0x03  # payload: columnar batch (primary's raw bytes)
OP_CATCHUP = 0x04  # payload: JSON {stream, t_start, t_end}
OP_APPEND_BATCH_EPOCH = 0x05  # payload: u32 shard-map epoch | columnar batch
OP_SUBSCRIBE = 0x06  # payload: JSON {stream, cursor, credits, batch, policy, ...}
OP_SUB_ACK = 0x07  # payload: JSON {sub_id, seq, credits}
OP_UNSUBSCRIBE = 0x08  # payload: JSON {sub_id}

# Response opcodes.
OP_OK = 0x80  # payload: JSON result
OP_ERR = 0x81  # payload: JSON {"error": ...}
OP_OK_BATCH = 0x82  # payload: columnar batch (catch-up and SELECT * replies)

# Push opcodes (server -> client, corr_id 0: not tied to any request).
OP_SUB_EVENTS = 0x90  # payload: u64 sub_id | u64 seq | columnar batch
OP_SUB_END = 0x91  # payload: u64 sub_id | JSON {reason, message}

_REQUEST_OPS = frozenset(
    {
        OP_JSON,
        OP_APPEND_BATCH,
        OP_REPLICATE_BATCH,
        OP_CATCHUP,
        OP_APPEND_BATCH_EPOCH,
        OP_SUBSCRIBE,
        OP_SUB_ACK,
        OP_UNSUBSCRIBE,
    }
)
_RESPONSE_OPS = frozenset({OP_OK, OP_ERR, OP_OK_BATCH, OP_SUB_EVENTS, OP_SUB_END})

#: Pushed frames a client may receive without a matching pending request.
PUSH_OPS = frozenset({OP_SUB_EVENTS, OP_SUB_END})
#: Most credits a subscription may open with (one credit = one pushed
#: batch).  Pushes that race ahead of the subscribe response wait in the
#: client until its handle registers, so that stash never holds more
#: than this many batches plus the end notice.
MAX_CREDITS = 256

_BATCH_HEAD = struct.Struct("<H")  # length prefixes for stream / schema
_BATCH_COUNT = struct.Struct("<I")
_EPOCH = struct.Struct("<I")  # shard-map epoch prefix (OP_APPEND_BATCH_EPOCH)
_SUB_HEAD = struct.Struct("<QQ")  # sub_id, seq (OP_SUB_EVENTS)
_SUB_ID = struct.Struct("<Q")  # sub_id prefix (OP_SUB_END)


def encode_sub_events_payload(sub_id: int, seq: int, batch_payload: bytes) -> bytes:
    """Pushed event batch: the PAX columnar batch payload, sub-addressed."""
    return _SUB_HEAD.pack(sub_id, seq) + batch_payload


def split_sub_events_payload(payload: bytes) -> tuple[int, int, bytes]:
    """``(sub_id, seq, batch_payload)`` of an ``OP_SUB_EVENTS`` frame."""
    if len(payload) < _SUB_HEAD.size:
        raise ProtocolError("sub_events payload shorter than its header")
    sub_id, seq = _SUB_HEAD.unpack_from(payload, 0)
    return sub_id, seq, payload[_SUB_HEAD.size :]


def encode_sub_end_payload(sub_id: int, reason: str, message: str = "") -> bytes:
    """Subscription termination notice (server push)."""
    body = encode_json_payload({"reason": reason, "message": message})
    return _SUB_ID.pack(sub_id) + body


def split_sub_end_payload(payload: bytes) -> tuple[int, str, str]:
    """``(sub_id, reason, message)`` of an ``OP_SUB_END`` frame."""
    if len(payload) < _SUB_ID.size:
        raise ProtocolError("sub_end payload shorter than its header")
    (sub_id,) = _SUB_ID.unpack_from(payload, 0)
    body = decode_json_payload(payload[_SUB_ID.size :])
    return sub_id, str(body.get("reason", "unknown")), str(body.get("message", ""))


def push_sub_id(payload: bytes) -> int:
    """The sub_id a pushed frame is addressed to (routing, no full decode)."""
    if len(payload) < _SUB_ID.size:
        raise ProtocolError("push payload shorter than its sub_id")
    return _SUB_ID.unpack_from(payload, 0)[0]


def encode_epoch_payload(epoch: int, batch_payload: bytes) -> bytes:
    """Prefix a columnar batch payload with the router's map epoch."""
    return _EPOCH.pack(epoch) + batch_payload


def split_epoch_payload(payload: bytes) -> tuple[int, bytes]:
    """``(epoch, batch_payload)`` of an ``OP_APPEND_BATCH_EPOCH`` frame.

    The returned batch payload is the exact byte layout of a plain
    ``OP_APPEND_BATCH`` payload, so the zero-copy replication path can
    forward it unchanged.
    """
    if len(payload) < _EPOCH.size:
        raise ProtocolError("epoch batch payload shorter than its prefix")
    return _EPOCH.unpack_from(payload, 0)[0], payload[_EPOCH.size :]


def encode_frame(op: int, corr_id: int, payload: bytes) -> bytes:
    if len(payload) > MAX_FRAME:
        raise ProtocolError(
            f"frame payload {len(payload)} exceeds {MAX_FRAME} bytes"
        )
    return HEADER.pack(MAGIC, VERSION, op, 0, corr_id, len(payload)) + payload


def decode_header(header: bytes) -> tuple[int, int, int]:
    """Validate a 12-byte header; returns ``(op, corr_id, payload_len)``."""
    magic, version, op, flags, corr_id, payload_len = HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic 0x{magic:02x}")
    if version != VERSION:
        raise ProtocolError(f"unsupported frame version {version}")
    if op not in _REQUEST_OPS and op not in _RESPONSE_OPS:
        raise ProtocolError(f"unknown frame op 0x{op:02x}")
    if flags:
        raise ProtocolError(f"unsupported frame flags 0x{flags:02x}")
    if payload_len > MAX_FRAME:
        raise ProtocolError(
            f"frame payload {payload_len} exceeds {MAX_FRAME} bytes"
        )
    return op, corr_id, payload_len


def encode_json_payload(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode()


def decode_json_payload(payload: bytes):
    try:
        return json.loads(payload.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"bad JSON frame payload: {error}") from error


# --------------------------------------------------------- batch payloads
#
# u16 stream_len | stream | u16 schema_len | schema_json | u32 count |
# i64 timestamps[count] | column0[count] | ... | column{arity-1}[count]

#: Decoded schemas/codecs keyed by the raw schema-JSON bytes, so a
#: server decoding thousands of identical batches parses the schema
#: once.  Bounded by the number of distinct schemas on the wire.
_SCHEMA_CACHE: dict[bytes, tuple[EventSchema, PaxCodec]] = {}


def _cached_schema(schema_bytes: bytes) -> tuple[EventSchema, PaxCodec]:
    entry = _SCHEMA_CACHE.get(schema_bytes)
    if entry is None:
        try:
            schema = EventSchema.from_dict(json.loads(schema_bytes.decode()))
        except Exception as error:
            raise ProtocolError(f"bad batch schema: {error}") from error
        entry = (schema, PaxCodec(schema))
        if len(_SCHEMA_CACHE) < 1024:
            _SCHEMA_CACHE[schema_bytes] = entry
    return entry


def schema_bytes_of(schema: EventSchema) -> bytes:
    """The canonical schema-JSON bytes embedded in batch payloads."""
    return json.dumps(schema.to_dict(), separators=(",", ":")).encode()


def encode_batch_payload(
    stream: str,
    schema_bytes: bytes,
    codec: PaxCodec,
    batch: ColumnarEvents,
) -> bytes:
    """The columnar batch payload of *batch*, straight from its arrays.

    A batch whose columns do not fit the schema — the wrong number of
    columns, or a value its column's struct cannot hold — raises
    :class:`SchemaError`: the request is wrong, the connection is fine.
    """
    name = stream.encode()
    body = codec.encode_columns(batch.timestamps, batch.columns)
    return b"".join(
        (
            _BATCH_HEAD.pack(len(name)),
            name,
            _BATCH_HEAD.pack(len(schema_bytes)),
            schema_bytes,
            _BATCH_COUNT.pack(len(batch)),
            body,
        )
    )


def batch_event_count(payload: bytes) -> int:
    """The event count of a batch payload, without decoding columns —
    replication accounting on the zero-copy path needs only this."""
    try:
        (name_len,) = _BATCH_HEAD.unpack_from(payload, 0)
        offset = _BATCH_HEAD.size + name_len
        (schema_len,) = _BATCH_HEAD.unpack_from(payload, offset)
        offset += _BATCH_HEAD.size + schema_len
        return _BATCH_COUNT.unpack_from(payload, offset)[0]
    except struct.error as error:
        raise ProtocolError(f"truncated batch payload: {error}") from error


def decode_batch_payload(payload: bytes):
    """Decode a batch payload once into arrays.

    Returns ``(stream, schema, timestamps, columns)`` — the timestamps
    and attribute columns are ``array.array`` objects of the schema's
    typecodes, one ``frombytes`` each (:meth:`PaxCodec.decode_columns`);
    no per-event or per-value objects are built here.
    """
    view = memoryview(payload)
    try:
        offset = _BATCH_HEAD.size
        (name_len,) = _BATCH_HEAD.unpack_from(view, 0)
        stream = bytes(view[offset : offset + name_len]).decode()
        offset += name_len
        (schema_len,) = _BATCH_HEAD.unpack_from(view, offset)
        offset += _BATCH_HEAD.size
        schema_bytes = bytes(view[offset : offset + schema_len])
        offset += schema_len
        (count,) = _BATCH_COUNT.unpack_from(view, offset)
        offset += _BATCH_COUNT.size
    except (struct.error, UnicodeDecodeError) as error:
        raise ProtocolError(f"truncated batch payload: {error}") from error
    schema, codec = _cached_schema(schema_bytes)
    need = offset + count * VALUE_SIZE * (1 + schema.arity)
    if len(payload) != need:
        raise ProtocolError(
            f"batch payload length {len(payload)} != expected {need} "
            f"({count} events, arity {schema.arity})"
        )
    timestamps, columns = codec.decode_columns(view[offset:], count)
    return stream, schema, timestamps, columns
