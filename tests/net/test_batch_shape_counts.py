"""Count-based guards on the batch shape — no wall clock.

A batch is a :class:`ColumnarEvents` from the API boundary to the leaf
and back out.  On a server every way events leave a node — a ``SELECT
*`` reply, an ``OP_CATCHUP`` reply, subscription replay and live pushes
— is the one columnar read encoded by one ``frames.encode_batch_payload``
call, and boxes no :class:`Event` on the way (no ``TabTree.time_travel``,
no ``TabTree._event_at``, no ``PaxCodec.encode_events``).  Embedded, a
list of events is transposed exactly once.  Each is asserted by counting
calls, so none can come back as a "fast enough" regression.
"""

import threading
from collections import Counter

import pytest

from repro import ChronicleConfig, ChronicleDB, ColumnarEvents, Event, EventSchema
from repro.events.serializer import PaxCodec
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
