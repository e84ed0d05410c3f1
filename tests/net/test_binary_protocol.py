"""Binary frame protocol end-to-end: ops, rejection, pipelining.

Everything runs against a real :class:`ChronicleServer` on real
sockets.  The suite covers the client's op surface, that a peer which
does not open with a frame is refused with a typed error, that
pipelined requests complete out of order, and that a client whose
connection desynchronizes fails over cleanly through the pool.
"""

import socket
import sys
import threading

import pytest

from repro import ChronicleConfig, ChronicleDB, ColumnarEvents, Event, EventSchema
from repro.cluster.placement import Endpoint
from repro.cluster.pool import ClientPool, is_connection_error
from repro.core.devices import RetryPolicy
from repro.errors import ProtocolError, SchemaError
from repro.events.serializer import PaxCodec
from repro.net import BinaryChronicleClient, ChronicleServer
from repro.net import frames
from repro.net.client import ConnectionClosed, RemoteError
from repro.testing.crashkit import device_bytes

SCHEMA = EventSchema.of("temp", "load")


def make_db():
    return ChronicleDB(config=ChronicleConfig(lblock_size=512, macro_size=2048))


@pytest.fixture
def server():
    with ChronicleServer(make_db()) as srv:
        yield srv


@pytest.fixture
def client(server):
    with BinaryChronicleClient(server.host, server.port) as cli:
        yield cli


# ------------------------------------------------------------- op parity


def test_ping_and_health(client):
    assert client.ping()
    assert client.health()["status"] == "ok"


def test_append_paths_read_back_as_one_log(server, client):
    client.create_stream("s", SCHEMA)
    client.append("s", Event.of(0, 1.0, 2.0))
    rows = [Event.of(t, float(t), 0.5) for t in range(1, 101)]
    assert client.append_batch("s", rows) == 100
    columnar = ColumnarEvents(
        list(range(101, 201)),
        [[float(t) for t in range(101, 201)], [0.5] * 100],
    )
    assert client.append_batch("s", columnar) == 100

    # One event, a row batch and a columnar batch read back as one log.
    got = client.query("SELECT * FROM s")
    assert [e.t for e in got] == list(range(201))
    assert got[150].values == (150.0, 0.5)

    out = client.query("SELECT count(temp), max(temp) FROM s")
    assert out["count(temp)"] == 201
    assert out["max(temp)"] == 200.0
    assert client.list_streams() == ["s"]
    assert client.stats()["streams"]["s"]["appended"] == 201
    client.flush()


@pytest.mark.parametrize("late", [False, True], ids=["in_order", "late"])
def test_single_appends_over_wire_match_embedded_append(late):
    """``client.append`` is a one-row batch on the wire; the store it
    builds is device-byte-identical to ``EventStream.append``."""
    timestamps = list(range(300))
    if late:
        timestamps[200:200] = [40, 41, 150]  # behind the frontier
    events = [Event.of(t, float(t % 11), float(-t)) for t in timestamps]

    embedded = make_db()
    stream = embedded.create_stream("s", SCHEMA)
    for event in events:
        stream.append(event)
    embedded.flush()

    served = make_db()
    with ChronicleServer(served) as srv:
        with BinaryChronicleClient(srv.host, srv.port) as cli:
            cli.create_stream("s", SCHEMA)
            for event in events:
                cli.append("s", event)
            cli.flush()
    assert device_bytes(served.devices) == device_bytes(embedded.devices)
    assert served.get_stream("s").stats() == stream.stats()


def test_catchup_roundtrip(client):
    client.create_stream("s", SCHEMA)
    client.append_batch("s", [Event.of(t, float(t), 0.0) for t in range(50)])
    got = client.catchup("s", 10, 19)
    assert got["schema"] == SCHEMA
    assert [e.t for e in got["events"]] == list(range(10, 20))


def test_replicate_raw_applies_and_counts(server, client):
    payload = frames.encode_batch_payload(
        "fresh",
        frames.schema_bytes_of(SCHEMA),
        PaxCodec(SCHEMA),
        ColumnarEvents.of([Event.of(t, 1.0, 2.0) for t in range(7)], 2),
    )
    # The stream does not exist yet: the self-describing payload creates
    # it — the catch-up path for replicas that missed create_stream.
    assert client.replicate_raw(payload) == 7
    assert client.stats()["streams"]["fresh"]["appended"] == 7


def test_schema_mismatch_is_reported(client):
    client.create_stream("s", SCHEMA)
    other = EventSchema.of("x")
    with pytest.raises(RemoteError, match="does not match"):
        client.replicate_batch("s", [Event.of(0, 1.0)], other)


# ------------------------------------------------------------- rejection


def test_binary_only_server_rejects_json_lines(server):
    """A peer that opens with a JSON line (or any non-``MAGIC`` byte)
    gets one ``OP_ERR`` frame naming the bad magic, then EOF."""
    for opening in (b'{"op":"ping"}\n', b"\x00" * frames.HEADER_SIZE):
        with socket.create_connection(
            (server.host, server.port), timeout=5
        ) as s:
            s.sendall(opening)
            reader = s.makefile("rb")
            op, corr_id, length = frames.decode_header(
                reader.read(frames.HEADER_SIZE)
            )
            assert (op, corr_id) == (frames.OP_ERR, 0)
            error = frames.decode_json_payload(reader.read(length))["error"]
            assert f"bad frame magic 0x{opening[0]:02x}" in error
            assert reader.read() == b""  # the server hung up
    with BinaryChronicleClient(server.host, server.port) as cli:
        assert cli.ping()


def test_unknown_protocol_rejected():
    for protocol in ("json", "auto", "carrier-pigeon"):
        with pytest.raises(ProtocolError, match="unknown protocol"):
            ChronicleServer(make_db(), protocol=protocol)


# ------------------------------------------------------------ pipelining


def test_pipelined_requests_complete_out_of_order(server, client):
    """A ping overtakes an append batch stalled on its stream lock —
    responses are matched by correlation id, not arrival order."""
    client.create_stream("s", SCHEMA)
    lock = server._lock_for("s")
    lock.acquire()
    try:
        stalled = client.append_batch_async(
            "s", [Event.of(0, 1.0, 2.0)]
        )
        assert client.ping(), "independent op should overtake the append"
        assert not stalled.done(), "append must still be blocked"
    finally:
        lock.release()
    assert stalled.result(timeout=5) == 1


def test_many_in_flight_frames(client):
    client.create_stream("s", SCHEMA)
    futures = [
        client.append_batch_async(
            "s", [Event.of(i * 10 + j, float(j), 0.0) for j in range(10)]
        )
        for i in range(50)
    ]
    assert sum(f.result(timeout=10) for f in futures) == 500
    assert client.stats()["streams"]["s"]["appended"] == 500


def test_pipelined_appends_apply_in_receipt_order(client):
    """Dependent ops on one connection apply in receipt order, pings
    interleaved or not: 64 one-row appends at one timestamp, sent
    without waiting, read back in send order."""
    client.create_stream("s", SCHEMA)
    ping = frames.encode_json_payload({"op": "ping"})
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more thread switches per request
    try:
        futures = []
        for value in range(64):
            row = [Event.of(7, float(value), 0.0)]
            futures.append(client.append_batch_async("s", row))
            futures.append(client._submit(frames.OP_JSON, ping))
        results = [future.result(timeout=10) for future in futures]
    finally:
        sys.setswitchinterval(previous)
    assert results == [1, "pong"] * 64
    rows = client.query("SELECT * FROM s")
    assert [event.values[0] for event in rows] == [float(v) for v in range(64)]


def test_frames_before_half_close_are_answered(server, client):
    """A peer that sends its requests and then shuts down its write side
    still gets every response, then EOF."""
    client.create_stream("s", SCHEMA)
    codec, schema_bytes = PaxCodec(SCHEMA), frames.schema_bytes_of(SCHEMA)
    with socket.create_connection((server.host, server.port), timeout=5) as s:
        for corr in (1, 2, 3):
            batch = ColumnarEvents.of(
                [Event.of(corr * 10 + j, 1.0, 2.0) for j in range(5)], 2
            )
            s.sendall(frames.encode_frame(
                frames.OP_APPEND_BATCH, corr,
                frames.encode_batch_payload("s", schema_bytes, codec, batch),
            ))
        s.sendall(frames.encode_frame(frames.OP_JSON, 4, b'{"op": "ping"}'))
        s.shutdown(socket.SHUT_WR)
        reader = s.makefile("rb")
        answers = {}
        for _ in range(4):
            op, corr_id, length = frames.decode_header(
                reader.read(frames.HEADER_SIZE)
            )
            body = frames.decode_json_payload(reader.read(length))
            answers[corr_id] = (op, body["result"])
        assert reader.read() == b""  # then the server hung up
    assert answers == {
        1: (frames.OP_OK, 5),
        2: (frames.OP_OK, 5),
        3: (frames.OP_OK, 5),
        4: (frames.OP_OK, "pong"),
    }
    assert client.stats()["streams"]["s"]["appended"] == 15


# ------------------------------------------------- desync and reconnect


def _garbage_listener():
    """Accepts one connection, answers any bytes with frame garbage."""
    sink = socket.socket()
    sink.bind(("127.0.0.1", 0))
    sink.listen(1)

    def serve():
        conn, _ = sink.accept()
        conn.recv(4096)
        conn.sendall(b"\xcb\x63" + b"\x00" * 10)  # bad version
        conn.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return sink, sink.getsockname()[1]


def test_desynced_stream_fails_typed_and_pool_reconnects(server):
    sink, port = _garbage_listener()
    try:
        pool = ClientPool()
        bad = pool.client(Endpoint("127.0.0.1", port))
        with pytest.raises((ProtocolError, RemoteError)) as excinfo:
            bad.ping()
        assert is_connection_error(excinfo.value)

        # The pool drops the poisoned connection and a fresh client to a
        # real server works — reconnect resets all half-read state.
        pool.invalidate(Endpoint("127.0.0.1", port))
        good = pool.client(Endpoint(server.host, server.port))
        assert good.ping()
        pool.close()
    finally:
        sink.close()


def test_remote_error_text_is_not_a_connection_error(server):
    """Connection failures are classified by type: a deterministic
    server error whose text happens to read like an EOF is not retried."""
    retry = RetryPolicy(max_attempts=3, backoff_seconds=0.0)
    with ClientPool(retry=retry) as pool:
        endpoint = Endpoint(server.host, server.port)
        with pytest.raises(RemoteError, match="unknown stream") as excinfo:
            pool.run(endpoint, lambda c: c.stats("closed the connection"))
        assert not is_connection_error(excinfo.value)
        assert pool.retries == 0


@pytest.mark.parametrize(
    "bad",
    [Event.of(1, 1.0), Event.of(1, 1.0, 2.0, 3.0), Event.of(1, "x", 2.0)],
    ids=["under_arity", "over_arity", "unencodable"],
)
def test_bad_batch_is_a_typed_request_error(server, bad):
    """A batch the schema cannot hold fails on the client, typed, before
    anything is sent: never retried as a transport failure, never
    costing the cached connection, never silently truncated."""
    retry = RetryPolicy(max_attempts=3, backoff_seconds=0.0)
    with ClientPool(retry=retry) as pool:
        endpoint = Endpoint(server.host, server.port)
        client = pool.client(endpoint)
        client.create_stream("s", SCHEMA)
        batch = [Event.of(0, 1.0, 2.0), bad]
        with pytest.raises(SchemaError) as excinfo:
            pool.run(endpoint, lambda c: c.append_batch("s", batch))
        assert not is_connection_error(excinfo.value)
        assert pool.retries == 0
        assert pool.client(endpoint) is client
        assert client.stats()["streams"]["s"]["appended"] == 0
        assert client.append_batch("s", [Event.of(0, 1.0, 2.0)]) == 1


def test_server_eof_is_a_connection_error(server):
    client = BinaryChronicleClient(server.host, server.port)
    assert client.ping()
    server.stop()
    with pytest.raises((OSError, ConnectionClosed)) as excinfo:
        client.ping()
    assert is_connection_error(excinfo.value)
    client.close()


def test_client_close_fails_pending_cleanly(server):
    client = BinaryChronicleClient(server.host, server.port)
    client.create_stream("s", SCHEMA)
    lock = server._lock_for("s")
    lock.acquire()
    try:
        pending = client.append_batch_async("s", [Event.of(0, 1.0, 2.0)])
        client.close()
        with pytest.raises(RemoteError, match="closed"):
            pending.result(timeout=5)
    finally:
        lock.release()
