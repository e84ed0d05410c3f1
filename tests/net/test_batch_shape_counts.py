"""Count-based guards on the batch shape — no wall clock.

A batch is a :class:`ColumnarEvents` from the API boundary to the leaf
and back out.  On a server every way events leave a node — a ``SELECT
*`` reply, an ``OP_CATCHUP`` reply, subscription replay and live pushes
— is the one columnar read encoded by one ``frames.encode_batch_payload``
call, and boxes no :class:`Event` on the way (no ``TabTree.time_travel``,
no ``TabTree._event_at``, no ``PaxCodec.encode_events``).  Embedded, a
list of events is transposed exactly once.  Read from flushed, evicted
leaves, the batch stays in typed columns from the L-block to the frame:
no ``struct`` call (un)packs a column value by value, and every column
the encoder copies out is an ``array`` of its typecode.  Each is
asserted by counting calls, so none can come back as a "fast enough"
regression.
"""

import re
import struct
import threading
from array import array
from collections import Counter

import pytest

from repro import ChronicleConfig, ChronicleDB, ColumnarEvents, Event, EventSchema
import repro.events.serializer as serializer
from repro.events.serializer import PaxCodec
from repro.storage.columns import ColumnSlicer
from repro.index.tab_tree import TabTree
from repro.net import BinaryChronicleClient, ChronicleServer, frames

SCHEMA = EventSchema.of("x", "y")
CONFIG = ChronicleConfig(lblock_size=512, macro_size=2048, queue_capacity=8)
BOXING = (
    (TabTree, "time_travel"),
    (TabTree, "_event_at"),
    (PaxCodec, "encode_events"),
)


def _events(lo, hi):
    return [Event.of(t, float(t), float(-t)) for t in range(lo, hi)]


@pytest.fixture
def client():
    with ChronicleServer(ChronicleDB(config=CONFIG)) as server:
        with BinaryChronicleClient(server.host, server.port) as cli:
            cli.create_stream("s", SCHEMA)
            # Out of order, so the queue is spliced into every read too.
            cli.append_batch("s", _events(0, 300) + [Event.of(5, 0.5, 0.5)])
            yield cli


@pytest.fixture
def server_calls(monkeypatch):
    """Counts calls made off the test's own thread — the server's."""
    calls = Counter()
    main = threading.main_thread()

    def counting(name, method):
        def wrapper(*args, **kwargs):
            if threading.current_thread() is not main:
                calls[name] += 1
            return method(*args, **kwargs)

        return wrapper

    for owner, name in BOXING:
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    monkeypatch.setattr(
        frames, "encode_batch_payload",
        counting("encode_batch_payload", frames.encode_batch_payload),
    )
    return calls


def _assert_unboxed(calls):
    for _, name in BOXING:
        assert calls[name] == 0, f"{name} boxed events on the server"


def test_select_star_reply_is_one_unboxed_encode(client, server_calls):
    got = client.query("SELECT * FROM s")
    assert [e.t for e in got] == sorted([*range(300), 5])
    assert server_calls["encode_batch_payload"] == 1
    _assert_unboxed(server_calls)


def test_catchup_reply_is_one_unboxed_encode(client, server_calls):
    got = client.catchup("s", 3, 9)
    assert [e.t for e in got["events"]] == [3, 4, 5, 5, 6, 7, 8, 9]
    assert server_calls["encode_batch_payload"] == 1
    _assert_unboxed(server_calls)


def test_subscription_pushes_are_one_unboxed_encode_each(client, server_calls):
    with client.subscribe("s", from_t=0, batch=64) as handle:
        replay = handle.take(301, timeout=5)
        client.append_batch("s", _events(300, 340))
        live = handle.take(40, timeout=5)
        # The hub counts a push before writing it: nothing is in flight.
        (sub,) = client.stats()["subscriptions"]["subs"]
    assert [e.t for e in replay + live] == sorted([*range(340), 5])
    assert sub["pushed_events"] == 341
    assert server_calls["encode_batch_payload"] == sub["pushed_batches"]
    _assert_unboxed(server_calls)


def test_embedded_list_append_is_transposed_once(monkeypatch):
    calls = Counter()
    real = ColumnarEvents.of.__func__

    def counted(cls, events, arity):
        calls["of"] += 1
        return real(cls, events, arity)

    monkeypatch.setattr(ColumnarEvents, "of", classmethod(counted))
    db = ChronicleDB(config=CONFIG)
    stream = db.create_stream("s", SCHEMA)
    events = _events(0, 10_000)
    assert stream.append_batch(events) == 10_000
    assert calls["of"] == 1
    assert list(stream.scan()) == events


#: A ``struct`` format that is a run of one column's values.
_COLUMN_FORMAT = re.compile(r"<\d+[qd]")


@pytest.fixture
def cold_server():
    """A server whose stream's leaves are all flushed and none buffered,
    so every read decodes its L-blocks through lazy leaf views."""
    db = ChronicleDB(config=CONFIG)
    with ChronicleServer(db) as server:
        with BinaryChronicleClient(server.host, server.port) as cli:
            cli.create_stream("s", SCHEMA)
            cli.append_batch("s", _events(0, 300) + [Event.of(5, 0.5, 0.5)])
            for split in db.get_stream("s").splits:
                split.tree.buffer.flush_dirty()
                split.tree.buffer._frames.clear()
            yield cli


def test_cold_reads_stay_typed_from_the_block_to_the_frame(
    cold_server, monkeypatch
):
    main = threading.main_thread()
    calls = Counter()
    packed = []

    def on_server(function, count):
        def wrapper(*args, **kwargs):
            if threading.current_thread() is not main:
                count(*args)
            return function(*args, **kwargs)

        return wrapper

    def per_value(name):
        def count(fmt, *args):
            if isinstance(fmt, str) and _COLUMN_FORMAT.fullmatch(fmt):
                calls[name] += 1

        return count

    for name in ("pack", "unpack_from"):
        monkeypatch.setattr(
            struct, name, on_server(getattr(struct, name), per_value(name))
        )
    monkeypatch.setattr(serializer, "_pack", on_server(
        serializer._pack,
        lambda char, count, column: packed.append(
            type(column) is array and column.typecode == char
        ),
    ))
    monkeypatch.setattr(ColumnSlicer, "column", on_server(
        ColumnSlicer.column, lambda *args: calls.update(["slices"])
    ))

    got = cold_server.query("SELECT * FROM s")
    assert [e.t for e in got] == sorted([*range(300), 5])
    got = cold_server.catchup("s", 3, 200)
    assert [e.t for e in got["events"]] == sorted([*range(3, 201), 5])
    with cold_server.subscribe("s", from_t=0, batch=64) as handle:
        replay = handle.take(301, timeout=5)
    assert [e.t for e in replay] == sorted([*range(300), 5])
    assert calls["slices"] > 0  # the reads went through leaf views
    assert calls["pack"] == calls["unpack_from"] == 0
    # Three columns (t, x, y) per payload: the reply, the catch-up reply
    # and at least the five pushes of the 301-event replay.
    assert len(packed) >= 3 * 7 and all(packed)
