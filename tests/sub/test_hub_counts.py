"""Count-based guards on the subscription hub — no wall clock.

The append path's whole duty to subscribers is one ``hub.notify`` per
batch; the hub keeps no event; a scan happens only when there is
something to read.  Each is asserted by counting calls, so none can
come back as a "fast enough" regression.
"""

import threading
import time
from collections import Counter, deque

import pytest

from repro import ChronicleConfig, ChronicleDB, Event, EventSchema
from repro.errors import SubscriptionClosed
from repro.net import BinaryChronicleClient, ChronicleServer
from repro.query import columnar
from repro.sub.hub import SubscriptionHub

SCHEMA = EventSchema.of("x", "y")
CONFIG = ChronicleConfig(lblock_size=512, macro_size=2048, queue_capacity=8)


@pytest.fixture
def server():
    with ChronicleServer(ChronicleDB(config=CONFIG)) as srv:
        yield srv


@pytest.fixture
def client(server):
    with BinaryChronicleClient(server.host, server.port) as cli:
        cli.create_stream("s", SCHEMA)
        yield cli


def _settle(server, sub_id, predicate=lambda sub: True):
    """Wait until no pump is queued for the sub."""
    sub = server.hub._subs[sub_id]
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        if not sub.dirty and predicate(sub):
            return sub
        time.sleep(0.01)
    pytest.fail(f"subscription never settled: {sub.describe()}")


def _count_hub_calls(monkeypatch):
    """Count every hub method call made off a connection's push thread."""
    calls = Counter()

    def counting(name, method):
        def wrapper(*args, **kwargs):
            if not threading.current_thread().name.endswith("-push"):
                calls[name] += 1
            return method(*args, **kwargs)

        return wrapper

    for name, method in vars(SubscriptionHub).items():
        if callable(method):
            monkeypatch.setattr(SubscriptionHub, name, counting(name, method))
    return calls


def test_append_path_rings_once_per_batch(server, client, monkeypatch):
    batches, size = 6, 32
    with client.subscribe("s", from_t=0, batch=size) as handle:
        sub = _settle(server, handle.sub_id, lambda sub: sub.mode == "live")
        assert server.db.get_stream("s").subscribers == []
        calls = _count_hub_calls(monkeypatch)
        scanned_on = []
        real = columnar.read_events

        def recorded(*args, **kwargs):
            scanned_on.append(threading.current_thread().name)
            return real(*args, **kwargs)

        monkeypatch.setattr(columnar, "read_events", recorded)
        for b in range(batches):
            lo = b * size
            # Arrival order != storage order, all ahead of the cursor.
            ts = [t ^ 1 for t in range(lo, lo + size)]
            client.append_batch("s", [Event.of(t, float(t), 0.0) for t in ts])
        got = handle.take(batches * size, timeout=5)
        _settle(server, handle.sub_id)
    assert calls["notify"] == batches
    # Nothing on the append path is per event: besides the bell (and the
    # consumer's own acks) the handlers reach only the dirty flag.
    per_batch = {k: v for k, v in calls.items() if k not in (
        "ack", "unsubscribe", "_finish", "_remove",
    )}
    assert set(per_batch) <= {"notify", "_mark_dirty_locked"}
    assert calls["_mark_dirty_locked"] <= batches + calls["ack"]
    # Every scan runs on the subscriber connection's push thread.
    assert scanned_on
    assert set(scanned_on) == {sub.channel._writer.name}
    oracle = list(server.db.get_stream("s").time_travel(0, 2**62))
    assert [(e.t, e.values) for e in got] == [(e.t, e.values) for e in oracle]


def test_ack_on_caught_up_unrung_subscription_scans_nothing(
    server, client, monkeypatch
):
    client.append_batch("s", [Event.of(t, float(t), 0.0) for t in range(10)])
    with client.subscribe("s", from_t=0) as handle:
        assert len(handle.take(10, timeout=5)) == 10
        sub = _settle(server, handle.sub_id, lambda sub: sub.mode == "live")
        scans = Counter()
        real = columnar.read_events

        def counted(*args, **kwargs):
            scans["read_events"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(columnar, "read_events", counted)
        credits = sub.credits
        handle.ack(credits=2)
        _settle(server, handle.sub_id, lambda sub: sub.credits == credits + 2)
        assert scans["read_events"] == 0
        # The bell is what makes the next ack-or-append scan.
        client.append("s", Event.of(10, 10.0, 0.0))
        assert [e.t for e in handle.take(1, timeout=5)] == [10]
        assert scans["read_events"] >= 1


def test_acks_on_caught_up_unrung_subscription_never_wake_the_dispatcher(
    server, client, monkeypatch
):
    """An ack only grants credits; with nothing rung and the cursor at
    the tail there is nothing to push, so no pump is queued."""
    client.append_batch("s", [Event.of(t, float(t), 0.0) for t in range(10)])
    with client.subscribe("s", from_t=0) as handle:
        assert len(handle.take(10, timeout=5)) == 10
        sub = _settle(server, handle.sub_id, lambda sub: sub.mode == "live")
        pumps = Counter()
        real = SubscriptionHub._pump

        def counted(self, *args, **kwargs):
            pumps["_pump"] += 1
            return real(self, *args, **kwargs)

        monkeypatch.setattr(SubscriptionHub, "_pump", counted)
        acks, credits = 20, sub.credits
        for _ in range(acks):
            handle.ack()
        _settle(server, handle.sub_id,
                lambda sub: sub.credits == credits + acks)
        assert pumps["_pump"] == 0
        client.append("s", Event.of(10, 10.0, 0.0))
        assert [e.t for e in handle.take(1, timeout=5)] == [10]
        assert pumps["_pump"] >= 1


def _stalled_subscriber(client, server, policy):
    """One credit spent, then 3 x queue_max events land unacked (sent on
    a connection of their own: ``disconnect`` severs the subscriber's)."""
    queue_max = 8
    client.append_batch("s", [Event.of(t, float(t), 0.0) for t in range(4)])
    handle = client.subscribe(
        "s", from_t=0, credits=1, batch=4, queue_max=queue_max,
        auto_ack=False, policy=policy,
    )
    batches = handle.batches(timeout=5)
    got = [e.t for e in next(batches)]
    _settle(server, handle.sub_id, lambda sub: sub.mode == "live")
    with BinaryChronicleClient(server.host, server.port) as writer:
        for b in range(3):
            lo = 4 + b * queue_max
            writer.append_batch(
                "s",
                [Event.of(t, float(t), 0.0) for t in range(lo, lo + queue_max)],
            )
    return handle, batches, got, 4 + 3 * queue_max


def test_stalled_consumer_buffers_nothing_and_drains_losslessly(server, client):
    handle, batches, got, total = _stalled_subscriber(client, server, "spill")
    sub = _settle(server, handle.sub_id)
    for slot in type(sub).__slots__:
        assert not isinstance(
            getattr(sub, slot), (list, tuple, dict, set, deque)
        ), f"subscription holds a container in {slot!r}"
    described = sub.describe()
    assert described["queued"] == total - 4
    assert described["spills"] == 1
    while len(got) < total:
        handle.ack()
        got.extend(e.t for e in next(batches))
    assert got == list(range(total))
    assert _settle(server, handle.sub_id).describe()["spills"] == 1
    handle.close()


def test_stalled_consumer_with_disconnect_policy_is_ended(server, client):
    handle, batches, _, _ = _stalled_subscriber(client, server, "disconnect")
    with pytest.raises(SubscriptionClosed) as err:
        while True:
            next(batches)
    assert err.value.reason == "slow_consumer"
