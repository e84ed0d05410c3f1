"""Crash/reconnect matrix: exactly-once replay → live handoff.

The hub's ``fault_injector`` severs the subscriber's connection
*instead of* a wire write — exactly like a peer vanishing mid-push.
The client reconnects with a fresh socket and resumes from its own
cursor (which only ever covers batches it actually received).  Across
every crash cadence the delivered sequence must equal the no-crash
oracle: no gaps, no duplicates, in order.
"""

import os

import pytest

from repro import ChronicleConfig, ChronicleDB, Event, EventSchema
from repro.errors import ProtocolError, SubscriptionClosed
from repro.net import BinaryChronicleClient, ChronicleServer
from repro.net.client import RemoteError

SCHEMA = EventSchema.of("x", "y")
CONFIG = ChronicleConfig(lblock_size=512, macro_size=2048)

RECONNECT_ERRORS = (SubscriptionClosed, RemoteError, ProtocolError, OSError)

# Optional override so CI can sweep other cadences without editing the
# test: CHRONICLE_SUB_CRASH_STRIDES="1,4" pytest tests/sub
_STRIDES = tuple(
    int(s)
    for s in os.environ.get("CHRONICLE_SUB_CRASH_STRIDES", "1,2,5").split(",")
)


class EveryNthPush:
    """Crash on every ``stride``-th wire write, ``budget`` times."""

    def __init__(self, stride, budget):
        self.stride = stride
        self.budget = budget
        self.pushes = 0
        self.crashes = 0

    def __call__(self, sub_describe, seq):
        self.pushes += 1
        if self.crashes < self.budget and self.pushes % self.stride == 0:
            self.crashes += 1
            return True
        return False


def collect_with_reconnects(host, port, total, batch=16, at_tail=None):
    """Drain ``total`` events of stream "s", reconnecting on any crash.

    ``at_tail=(n, feed)`` calls ``feed()`` once, when ``n`` events are
    in hand and the subscription that delivered them still stands —
    what ``feed`` appends lands on a caught-up subscriber."""
    events = []
    cursor = None
    attempts = 0
    while len(events) < total:
        attempts += 1
        assert attempts <= 200, "reconnect livelock"
        with BinaryChronicleClient(host, port) as cli:
            try:
                handle = cli.subscribe(
                    "s",
                    cursor=cursor,
                    **({} if cursor is not None else {"from_t": 0}),
                    batch=batch,
                )
                for pushed in handle.batches(timeout=10):
                    events.extend(pushed)
                    cursor = handle.cursor
                    if at_tail is not None and len(events) >= at_tail[0]:
                        at_tail[1]()
                        at_tail = None
                    if len(events) >= total:
                        handle.close()
                        break
            except RECONNECT_ERRORS:
                continue
    return events


@pytest.mark.parametrize("stride", _STRIDES)
def test_crash_matrix_exactly_once(stride):
    total = 400
    with ChronicleServer(ChronicleDB(config=CONFIG)) as srv:
        with BinaryChronicleClient(srv.host, srv.port) as writer:
            writer.create_stream("s", SCHEMA)
            # Half the history exists before the first subscribe
            # (crashes land mid-replay), half is appended live
            # (crashes land mid-push after the handoff).
            writer.append_batch(
                "s", [Event.of(t, float(t), 0.0) for t in range(200)]
            )
            injector = EveryNthPush(stride, budget=12)
            srv.hub.fault_injector = injector
            writer.append_batch(
                "s", [Event.of(t, float(t), 0.0) for t in range(200, total)]
            )

            # Then, on the caught-up subscriber, one batch whose arrival
            # order is not its storage order — all of it ahead of the
            # cursor — around a run of equal timestamps longer than a
            # pushed batch, so severed pushes leave cursors inside it.
            tail_ts = [400, 402, 401] + [403] * 20 + [405, 404] + [403] * 20
            tail_ts += [407, 406]

            def feed_tail():
                # Keep severing through the tail, the cadence restarted.
                injector.pushes = 0
                injector.budget += 8
                writer.append_batch(
                    "s",
                    [
                        Event.of(t, float(total + i), 0.0)
                        for i, t in enumerate(tail_ts)
                    ],
                )

            events = collect_with_reconnects(
                srv.host, srv.port, total + len(tail_ts),
                at_tail=(total, feed_tail),
            )
            assert injector.crashes > 0, "matrix never fired"
            # The no-crash oracle is storage (time-travel) order.
            oracle = list(srv.db.get_stream("s").time_travel(0, 2**62))
        assert [(e.t, e.values) for e in events] == [
            (e.t, e.values) for e in oracle
        ]
        assert [e.t for e in events[total:]] == sorted(tail_ts)
        del events[total:]
        assert [e.t for e in events] == list(range(total))
        assert [e.values[0] for e in events] == [float(t) for t in range(total)]


def test_crash_exactly_at_duplicate_timestamp_boundary():
    # All crashes land inside a run of equal timestamps: the k part of
    # the cursor is what guarantees exactly-once here.
    with ChronicleServer(ChronicleDB(config=CONFIG)) as srv:
        with BinaryChronicleClient(srv.host, srv.port) as writer:
            writer.create_stream("s", SCHEMA)
            writer.append_batch(
                "s", [Event.of(t // 8, float(t), 0.0) for t in range(256)]
            )
            srv.hub.fault_injector = EveryNthPush(stride=2, budget=10)
            events = collect_with_reconnects(srv.host, srv.port, 256, batch=4)
        assert [e.values[0] for e in events] == [float(t) for t in range(256)]


@pytest.mark.parametrize("stride", _STRIDES)
def test_late_event_at_the_cursor_timestamp_is_delivered_once(stride):
    # A run of equal timestamps spanning many leaves, a subscriber whose
    # cursor sits inside it, then one late event at that timestamp: it
    # is stored behind every row already at t, so the cursor's k still
    # counts the same rows and the late row arrives exactly once.
    config = ChronicleConfig(lblock_size=512, macro_size=2048, queue_capacity=1)
    with ChronicleServer(ChronicleDB(config=config)) as srv:
        with BinaryChronicleClient(srv.host, srv.port) as writer:
            writer.create_stream("s", SCHEMA)
            writer.append_batch(
                "s", [Event.of(1000, float(i), 0.0) for i in range(200)]
            )
            writer.append_batch(
                "s", [Event.of(1001 + i, float(200 + i), 0.0) for i in range(200)]
            )
            injector = EveryNthPush(stride, budget=12)
            srv.hub.fault_injector = injector
            late = Event.of(1000, -1.0, 1.0)

            def feed_late():
                writer.append_batch("s", [late])

            events = collect_with_reconnects(
                srv.host, srv.port, 401, at_tail=(64, feed_late)
            )
            assert injector.crashes > 0, "matrix never fired"
            oracle = list(srv.db.get_stream("s").time_travel(0, 2**62))
        got = [(e.t, e.values) for e in events]
        assert got == [(e.t, e.values) for e in oracle]
        assert len(set(got)) == 401
        assert got[200] == (late.t, late.values)
