"""Protocol error paths: malformed input must never wedge the server."""

import socket
import threading
import time

import pytest

from repro import ChronicleConfig, ChronicleDB, Event, EventSchema
from repro.net import BinaryChronicleClient, ChronicleServer
from repro.net import frames

SCHEMA = EventSchema.of("v")


@pytest.fixture
def server():
    db = ChronicleDB(config=ChronicleConfig(lblock_size=512, macro_size=2048))
    with ChronicleServer(db) as srv:
        yield srv


def read_frame(reader):
    """One response frame off a socket file: ``(op, corr_id, body)``."""
    op, corr_id, length = frames.decode_header(reader.read(frames.HEADER_SIZE))
    return op, corr_id, frames.decode_json_payload(reader.read(length))


def raw_exchange(server, payload: bytes, corr_id: int = 5):
    """Send raw bytes as one ``OP_JSON`` frame payload; return the
    response ``(op, corr_id, body)``."""
    with socket.create_connection((server.host, server.port), timeout=5) as s:
        s.sendall(frames.encode_frame(frames.OP_JSON, corr_id, payload))
        return read_frame(s.makefile("rb"))


def test_unknown_op_is_reported_not_fatal(server):
    op, _, body = raw_exchange(server, b'{"op": "frobnicate"}')
    assert op == frames.OP_ERR
    assert "frobnicate" in body["error"]
    # The request error did not take the server down.
    with BinaryChronicleClient(server.host, server.port) as client:
        assert client.ping()


def test_malformed_json_is_reported(server):
    """A bad JSON frame payload is the request's error, not the
    connection's: ``OP_ERR`` under the request's corr id, and the next
    frame on the same socket is served."""
    with socket.create_connection((server.host, server.port), timeout=5) as s:
        reader = s.makefile("rb")
        # Truncated JSON, then valid JSON that is not a request object.
        for corr, bad in enumerate(
            (b'{"op": "ping"', b"[]", b"3", b'"x"'), start=38
        ):
            s.sendall(frames.encode_frame(frames.OP_JSON, corr, bad))
            op, corr_id, body = read_frame(reader)
            assert (op, corr_id) == (frames.OP_ERR, corr)
            assert "bad JSON frame payload" in body["error"]
        s.sendall(frames.encode_frame(frames.OP_JSON, 42, b'{"op": "ping"}'))
        assert read_frame(reader) == (frames.OP_OK, 42, {"result": "pong"})


def test_missing_fields_are_reported(server):
    for request in (b'{"op": "create_stream"}', b'{"op": "query"}', b"{}"):
        op, corr_id, body = raw_exchange(server, request)
        assert (op, corr_id) == (frames.OP_ERR, 5)
        assert "bad request" in body["error"]


def test_mid_request_disconnect_leaves_server_healthy(server):
    frame = frames.encode_frame(frames.OP_JSON, 1, b'{"op": "ping"}')
    for cut in (5, frames.HEADER_SIZE + 4):  # mid-header, mid-payload
        with socket.create_connection(
            (server.host, server.port), timeout=5
        ) as s:
            s.sendall(frame[:cut])  # hang up mid-request
    with BinaryChronicleClient(server.host, server.port) as client:
        assert client.ping()


#: Name prefixes of the threads a server starts.
SERVER_THREADS = ("chronicle-conn-", "chronicle-accept", "chronicle-sub-hub")


def new_threads(before, prefixes=SERVER_THREADS):
    return [
        thread.name
        for thread in threading.enumerate()
        if thread not in before and thread.name.startswith(prefixes)
    ]


def test_client_threads_are_pruned():
    before = set(threading.enumerate())
    server = ChronicleServer(ChronicleDB())
    server.start()
    try:
        for _ in range(8):
            with BinaryChronicleClient(server.host, server.port) as client:
                client.ping()
        deadline = time.time() + 5
        while (
            server.live_connections or new_threads(before, "chronicle-conn-")
        ) and time.time() < deadline:
            time.sleep(0.01)
        # Closed connections must not accumulate in the server core,
        # nor their threads in the process.
        assert server.live_connections == 0
        assert new_threads(before, "chronicle-conn-") == []
        with BinaryChronicleClient(server.host, server.port) as client:
            client.create_stream("s", SCHEMA)
            handle = client.subscribe("s")  # starts the hub thread
            client.append("s", Event.of(1, 1.0))
            handle.take(1, timeout=5)  # ... and this connection's push writer
            assert any(name.endswith("-push") for name in new_threads(before))
    finally:
        server.stop()
    assert new_threads(before) == []


def test_slow_reader_stalls_only_its_own_connection():
    """A subscriber that never reads fills its socket and blocks its
    connection's push writer; appends and a second subscriber on other
    connections carry on, and ``stop`` still returns promptly."""
    schema = EventSchema.of("a", "b", "c", "d")
    rows, batches = 1000, 200  # 8 MB of pushes: more than the socket buffers
    server = ChronicleServer(ChronicleDB())
    server.start()
    peer = socket.socket()
    received, errors = [], []

    def drive():
        try:
            with BinaryChronicleClient(server.host, server.port) as writer, \
                    BinaryChronicleClient(server.host, server.port) as reader:
                handle = reader.subscribe("s", from_t=0, batch=rows)
                for i in range(batches):
                    writer.append_batch("s", [
                        Event.of(i * rows + j, 1.0, 2.0, 3.0, 4.0)
                        for j in range(rows)
                    ])
                for batch in handle.batches(timeout=10):
                    received.append(len(batch))
                    if sum(received) == rows * batches:
                        break
                handle.close()
        except Exception as error:
            errors.append(error)

    try:
        with BinaryChronicleClient(server.host, server.port) as admin:
            admin.create_stream("s", schema)
        peer.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        peer.settimeout(5)
        peer.connect((server.host, server.port))
        request = {"stream": "s", "from_t": 0, "credits": 1000, "batch": rows}
        peer.sendall(frames.encode_frame(
            frames.OP_SUBSCRIBE, 1, frames.encode_json_payload(request)
        ))
        driver = threading.Thread(target=drive, daemon=True)
        driver.start()
        driver.join(timeout=60)
        assert not driver.is_alive(), "other connections stalled"
        assert not errors
        assert sum(received) == rows * batches
    finally:
        # ``stop`` runs on its own thread so a wedged one fails the test
        # instead of hanging it.
        started = time.monotonic()
        stopper = threading.Thread(target=server.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=10)
        peer.close()
    assert not stopper.is_alive(), "stop() wedged behind the slow reader"
    assert time.monotonic() - started < 5.0


def test_streams_do_not_serialize_behind_each_other(server):
    """Appends to one stream proceed while another stream's lock is held."""
    with BinaryChronicleClient(server.host, server.port) as client:
        client.create_stream("a", SCHEMA)
        client.create_stream("b", SCHEMA)
        lock_a = server._lock_for("a")
        done = threading.Event()

        def append_b():
            with BinaryChronicleClient(server.host, server.port) as other:
                other.append("b", Event.of(1, 1.0))
            done.set()

        with lock_a:  # a writer camped on stream "a"
            threading.Thread(target=append_b, daemon=True).start()
            assert done.wait(timeout=5), (
                "append to stream b blocked behind stream a's lock"
            )
        assert client.query("SELECT count(v) FROM b")["count(v)"] == 1.0


def test_concurrent_appends_to_distinct_streams(server):
    streams = [f"s{i}" for i in range(4)]
    with BinaryChronicleClient(server.host, server.port) as admin:
        for name in streams:
            admin.create_stream(name, SCHEMA)
    errors = []

    def writer(name):
        try:
            with BinaryChronicleClient(server.host, server.port) as client:
                client.append_batch(
                    name, [Event.of(t, float(t)) for t in range(200)]
                )
        except Exception as error:  # pragma: no cover
            errors.append((name, error))

    threads = [
        threading.Thread(target=writer, args=(name,)) for name in streams
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    with BinaryChronicleClient(server.host, server.port) as client:
        for name in streams:
            assert client.query(f"SELECT count(v) FROM {name}") == {
                "count(v)": 200.0
            }
