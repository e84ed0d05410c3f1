"""Live subscriptions end to end: replay, handoff, backpressure.

Everything runs against a real :class:`ChronicleServer` on real
sockets with the binary frame protocol.
"""

import threading
import time

import pytest

from repro import ChronicleConfig, ChronicleDB, Event, EventSchema
from repro.errors import SubscriptionClosed
from repro.net import BinaryChronicleClient, ChronicleServer, frames
from repro.net.client import RemoteError

SCHEMA = EventSchema.of("x", "y")
CONFIG = ChronicleConfig(
    lblock_size=512, macro_size=2048, queue_capacity=8,
    checkpoint_interval=32,
)


def make_events(t_lo, t_hi):
    return [Event.of(t, float(t), float(-t)) for t in range(t_lo, t_hi)]


@pytest.fixture
def server():
    with ChronicleServer(ChronicleDB(config=CONFIG)) as srv:
        yield srv


@pytest.fixture
def client(server):
    with BinaryChronicleClient(server.host, server.port) as cli:
        yield cli


def test_replay_then_live_then_resume(server, client):
    client.create_stream("s", SCHEMA)
    client.append_batch("s", make_events(0, 100))

    with client.subscribe("s", from_t=0, batch=16) as handle:
        got = handle.take(100, timeout=5)
        assert [e.t for e in got] == list(range(100))
        assert got[42].values == (42.0, -42.0)

        # Live tail: events appended while subscribed arrive pushed.
        client.append_batch("s", make_events(100, 150))
        got = handle.take(50, timeout=5)
        assert [e.t for e in got] == list(range(100, 150))
        cursor = handle.cursor

    # Resume from the cursor on a fresh subscription: exactly once.
    client.append_batch("s", make_events(150, 160))
    with client.subscribe("s", cursor=cursor) as handle:
        got = handle.take(10, timeout=5)
        assert [e.t for e in got] == list(range(150, 160))


def test_tail_only_subscription_skips_history(server, client):
    client.create_stream("s", SCHEMA)
    client.append_batch("s", make_events(0, 50))
    with client.subscribe("s") as handle:
        client.append_batch("s", make_events(50, 60))
        got = handle.take(10, timeout=5)
        assert [e.t for e in got] == list(range(50, 60))


def test_duplicate_timestamps_resume_with_k_cursor(server, client):
    client.create_stream("s", SCHEMA)
    # Five events all at t=7: the cursor's k disambiguates them.
    events = [Event.of(7, float(i), 0.0) for i in range(5)]
    client.append_batch("s", events)
    with client.subscribe("s", from_t=0, batch=2) as handle:
        first = handle.take(2, timeout=5)
        assert [e.values[0] for e in first] == [0.0, 1.0]
        cursor = handle.cursor
        assert cursor == (7, 2)
    with client.subscribe("s", cursor=cursor) as handle:
        rest = handle.take(3, timeout=5)
        assert [e.values[0] for e in rest] == [2.0, 3.0, 4.0]


def test_backpressure_credits_bound_unacked_batches(server, client):
    client.create_stream("s", SCHEMA)
    client.append_batch("s", make_events(0, 1000))
    # One credit, no auto-ack: the server may push exactly one batch.
    handle = client.subscribe(
        "s", from_t=0, credits=1, batch=10, auto_ack=False
    )
    batches = handle.batches(timeout=5)
    first = next(batches)
    assert len(first) == 10
    time.sleep(0.3)  # server would push more if credits allowed
    assert handle._incoming.qsize() == 0
    # Each ack releases exactly one more batch.
    handle.ack()
    assert len(next(batches)) == 10
    handle.close()


def _wait_for_sub(client, predicate, what, timeout=5.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        subs = client.stats()["subscriptions"]["subs"]
        if subs and predicate(subs[0]):
            return subs[0]
        time.sleep(0.05)
    pytest.fail(f"timed out waiting for {what}")


def test_spill_policy_falls_back_to_replay_losslessly(server, client):
    client.create_stream("s", SCHEMA)
    client.append_batch("s", make_events(0, 4))
    handle = client.subscribe(
        "s", from_t=0, credits=1, batch=4, queue_max=8, auto_ack=False,
        policy="spill",
    )
    batches = handle.batches(timeout=10)
    got = [e.t for e in next(batches)]  # the only credited batch
    _wait_for_sub(client, lambda s: s["mode"] == "live", "live handoff")
    # Flood the live queue past queue_max while the consumer is
    # stalled (zero credits): spill drops the queue, not the data.
    client.append_batch("s", make_events(4, 400))
    _wait_for_sub(client, lambda s: s["spills"] >= 1, "a spill")
    # Drain everything: replay re-reads the spilled range from storage.
    while len(got) < 400:
        handle.ack()
        got.extend(e.t for e in next(batches))
    assert got == list(range(400))
    handle.close()


def test_disconnect_policy_severs_slow_consumer(server, client):
    client.create_stream("s", SCHEMA)
    client.append_batch("s", make_events(0, 4))
    handle = client.subscribe(
        "s", from_t=0, credits=1, batch=4, queue_max=4, auto_ack=False,
        policy="disconnect",
    )
    batches = handle.batches(timeout=10)
    next(batches)
    client.append_batch("s", make_events(4, 200))
    with pytest.raises(SubscriptionClosed) as err:
        while True:
            next(batches)
    assert err.value.reason == "slow_consumer"


def test_server_stop_sends_typed_close(server, client):
    client.create_stream("s", SCHEMA)
    client.append_batch("s", make_events(0, 5))
    handle = client.subscribe("s", from_t=0)
    assert len(handle.take(5, timeout=5)) == 5
    stopper = threading.Thread(target=server.stop)
    stopper.start()
    with pytest.raises(SubscriptionClosed) as err:
        handle.take(1, timeout=5)
    stopper.join(timeout=5)
    assert err.value.reason == "server_closing"


def test_unsubscribe_ends_iteration_silently(server, client):
    client.create_stream("s", SCHEMA)
    client.append_batch("s", make_events(0, 5))
    handle = client.subscribe("s", from_t=0)
    events = []
    for batch in handle.batches(timeout=5):
        events.extend(batch)
        if len(events) >= 5:
            handle.close()
    assert [e.t for e in events] == list(range(5))
    assert client.stats()["subscriptions"]["active"] == 0


def test_close_wakes_a_consumer_blocked_on_another_thread(server, client):
    """A consumer waiting in ``batches()`` with no timeout returns when
    another thread closes the handle."""
    client.create_stream("s", SCHEMA)
    client.append_batch("s", make_events(0, 10))
    handle = client.subscribe("s", from_t=0)
    events, consumed = [], threading.Event()

    def consume():
        for batch in handle.batches():
            events.extend(batch)
            if len(events) >= 10:
                consumed.set()

    consumer = threading.Thread(target=consume, daemon=True)
    consumer.start()
    assert consumed.wait(timeout=5)
    time.sleep(0.05)  # the consumer is back in the blocking get
    handle.close()
    consumer.join(timeout=1)
    assert not consumer.is_alive()
    assert [e.t for e in events] == list(range(10))


def test_unknown_stream_and_bad_params_are_typed_errors(server, client):
    with pytest.raises(RemoteError):
        client.subscribe("nope")
    client.create_stream("s", SCHEMA)
    with pytest.raises(RemoteError):
        client.subscribe("s", credits=0)
    with pytest.raises(RemoteError):
        client.subscribe("s", policy="wat")
    with pytest.raises(RemoteError):
        client.subscribe("s", cursor=(0, -5))


def test_subscribe_tunnelled_as_a_control_op_is_refused(client):
    """``subscribe`` is a frame op with a push channel behind it, not
    an ``OP_JSON`` control op: tunnelled as one it is refused."""
    with pytest.raises(RemoteError, match="unknown op 'subscribe'"):
        client.call({"op": "subscribe", "stream": "s"})
    assert client.ping()


def test_late_out_of_order_event_behind_live_cursor_is_skipped(
    server, client
):
    client.create_stream("s", SCHEMA)
    client.append_batch("s", make_events(0, 20))
    with client.subscribe("s", from_t=0) as handle:
        assert len(handle.take(20, timeout=5)) == 20
        # Now live.  An OOO event far behind the cursor is absorbed by
        # storage but not pushed (delivery stays time-monotone)...
        client.append("s", Event.of(3, 99.0, 99.0))
        # ...while in-order traffic keeps flowing.
        client.append_batch("s", make_events(20, 25))
        got = handle.take(5, timeout=5)
        assert [e.t for e in got] == list(range(20, 25))
    stats = client.stats()["subscriptions"]
    assert stats["active"] == 0


def test_out_of_order_arrivals_ahead_of_cursor_push_in_storage_order(
    server, client
):
    client.create_stream("s", SCHEMA)
    client.append_batch("s", make_events(0, 20))
    handle = client.subscribe("s", from_t=0)
    assert len(handle.take(20, timeout=5)) == 20
    _wait_for_sub(client, lambda s: s["mode"] == "live", "the tail")
    # One batch, arrival order != storage order, all ahead of the cursor.
    client.append_batch("s", [Event.of(t, float(t), 0.0) for t in (20, 22, 21)])
    assert [e.t for e in handle.take(3, timeout=5)] == [20, 21, 22]
    cursor = handle.cursor
    handle.close()
    # The cursor covers all three: a resume re-delivers nothing...
    with client.subscribe("s", cursor=cursor) as resumed:
        with pytest.raises(TimeoutError):
            resumed.take(1, timeout=1)
        # ...and the next append arrives exactly once.
        client.append("s", Event.of(23, 23.0, 0.0))
        assert [e.t for e in resumed.take(1, timeout=5)] == [23]
        with pytest.raises(TimeoutError):
            resumed.take(1, timeout=0.3)


def test_two_subscribers_one_stream(server, client):
    client.create_stream("s", SCHEMA)
    client.append_batch("s", make_events(0, 30))
    with BinaryChronicleClient(server.host, server.port) as other:
        h1 = client.subscribe("s", from_t=0)
        h2 = other.subscribe("s", from_t=10)
        assert [e.t for e in h1.take(30, timeout=5)] == list(range(30))
        assert [e.t for e in h2.take(20, timeout=5)] == list(range(10, 30))
        client.append_batch("s", make_events(30, 35))
        assert [e.t for e in h1.take(5, timeout=5)] == list(range(30, 35))
        assert [e.t for e in h2.take(5, timeout=5)] == list(range(30, 35))
        h1.close()
        h2.close()


def test_subscription_stats_surface(server, client):
    client.create_stream("s", SCHEMA)
    client.append_batch("s", make_events(0, 10))
    with client.subscribe("s", from_t=0) as handle:
        handle.take(10, timeout=5)
        # take() can return before the hub thread has finished its
        # bookkeeping for the batch (replay -> live flip, counters).
        deadline = time.monotonic() + 5
        while True:
            stats = client.stats()["subscriptions"]
            if (
                stats["subs"] and stats["subs"][0]["mode"] == "live"
            ) or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        assert stats["active"] == 1
        (entry,) = stats["subs"]
        assert entry["stream"] == "s"
        assert entry["pushed_events"] == 10
        assert entry["mode"] == "live"


def test_initial_credits_above_the_stash_bound_are_refused(client):
    """The client keeps at most ``MAX_CREDITS`` pushes that race ahead of
    its handle; the hub refuses a larger window rather than push events
    the client would have to drop."""
    client.create_stream("s", SCHEMA)
    with pytest.raises(RemoteError, match="credits"):
        client.subscribe("s", credits=frames.MAX_CREDITS + 1)


def test_pushes_in_flight_past_an_unsubscribe_are_dropped(client):
    """Batches and END notices that arrive after a handle closed leave
    nothing behind on the client."""
    client.create_stream("s", SCHEMA)
    client.append_batch("s", make_events(0, 2000))
    for _ in range(20):
        handle = client.subscribe("s", from_t=0, batch=16)
        handle.take(1, timeout=5)
        handle.close()
    # One connection's pushes leave in order: once a fresh
    # subscription's first batch is in, every earlier frame has arrived.
    with client.subscribe("s", from_t=0, batch=16) as handle:
        handle.take(1, timeout=5)
        assert client._orphan_pushes == {}
        assert client._unsubscribed == set()


def test_a_full_window_raced_ahead_of_the_handle_arrives_once(
    client, monkeypatch
):
    """At the credit bound, with the handle registering only after the
    whole window was pushed and stashed, every event arrives exactly
    once and in order."""
    client.create_stream("s", SCHEMA)
    client.append_batch("s", make_events(0, 2000))
    register = BinaryChronicleClient._register_push_handler

    def late_register(self, sub_id, handler):
        deadline = time.monotonic() + 10
        while (
            len(self._orphan_pushes.get(sub_id, ())) < frames.MAX_CREDITS
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        register(self, sub_id, handler)

    monkeypatch.setattr(
        BinaryChronicleClient, "_register_push_handler", late_register
    )
    with client.subscribe(
        "s", from_t=0, batch=1, credits=frames.MAX_CREDITS
    ) as handle:
        assert handle._incoming.qsize() == frames.MAX_CREDITS
        got = handle.take(2000, timeout=10)
    assert [e.t for e in got] == list(range(2000))
