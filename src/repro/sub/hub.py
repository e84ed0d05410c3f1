"""Server-side subscription hub.

One :class:`SubscriptionHub` per :class:`~repro.net.server.ChronicleServer`
owns every subscription on that node.  The contract it implements:

**One delivery path: a subscription is a cursor over the log.**  The
hub holds no event.  Every pushed batch — history and live tail alike —
is one scan: take the server's per-stream lock (the lock every append
handler holds), read from the cursor what an unfiltered ``SELECT *``
reads (:func:`repro.query.columnar.read_events`: one columnar batch
straight from the leaf windows, never an event object), advance the
cursor, encode that batch and push it outside the lock.  The append
path only rings a doorbell (:meth:`SubscriptionHub.notify`, once per
batch): it adds the batch's size to the subscription's backlog count
and, unless one is already queued (``dirty``), queues a pump on the
push thread of the subscriber's connection — the one thread that moves
that subscription's cursor.  No wake-up is lost: the pump clears
``dirty`` before it scans, and scans and appends serialise on the
stream lock, so an append either precedes the scan and is read by it,
or follows it and rings again.

**Cursors, exactly once.**  A cursor is ``(t, k)``: every event strictly
before timestamp ``t`` has been delivered, plus the first ``k`` events
at ``t`` (storage order at one timestamp is stable: insertion order).
Resuming a subscription is just a fresh subscribe carrying the cursor.
Delivery is in storage (time) order and monotone by construction — a
batch that arrives out of order ahead of the cursor is pushed sorted,
and an event that lands *behind* the cursor is not pushed, because no
scan starts before the cursor; a resumed subscription sees exactly the
sequence an uninterrupted one does.  On a node that a split left with
dead copies, every push reads the node's owned time slices only
(``routes``), and a subscription ends where the node's ownership does.

**Backpressure.**  Credits are granted by the client (one credit = one
pushed batch) at subscribe time and topped up by ``sub_ack``.  Storage
is the only buffer; ``queue_max`` is how many events behind the tail a
consumer may fall.  When the backlog crosses it the slow-consumer
policy runs: ``"spill"`` only counts the excursion (the events are
durable, the next credited scan reads them), ``"disconnect"`` pushes a
typed ``slow_consumer`` end notice and severs the connection once the
requests it already sent are answered.

Every scan and push runs on the subscriber connection's push thread
(:meth:`repro.net.aio.PushChannel.run`), never on the append path, so
ingest latency never waits on a subscriber's socket, and a subscriber
that stops reading stalls only its own connection.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left, bisect_right

from repro.errors import ChronicleError, SubscriptionError
from repro.events.serializer import PaxCodec
from repro.net import frames
from repro.obs import OBS
from repro.query import columnar
from repro.query.ast import Query, SelectStar
from repro.query.planner import execute

_HUGE = 2**62

REPLAY = "replay"
LIVE = "live"

POLICIES = ("spill", "disconnect")

_M_SUBS = OBS.counter("sub.subscriptions")
_M_BATCHES = OBS.counter("sub.batches_pushed")
_M_EVENTS = OBS.counter("sub.events_pushed")
_M_ACKS = OBS.counter("sub.acks")
_M_SPILLS = OBS.counter("sub.spills")
_M_SLOW_DISCONNECTS = OBS.counter("sub.slow_disconnects")
_M_ACTIVE = OBS.gauge("sub.active")
_M_QUEUE_DEPTH = OBS.histogram("sub.queue_depth", smallest=1.0)
_M_LAG = OBS.histogram("sub.delivery_lag_seconds")


def next_cursor(cursor: tuple[int, int], timestamps) -> tuple[int, int]:
    """The ``(t, k)`` cursor after delivering *timestamps* (ascending)
    from *cursor* — the one cursor rule, shared by the hub and the
    client-side :class:`~repro.sub.client.SubscriptionHandle`."""
    if not timestamps:
        return cursor
    last = timestamps[-1]
    trailing = len(timestamps) - bisect_left(timestamps, last)
    if last == cursor[0]:
        return last, cursor[1] + trailing
    return last, trailing


class _Subscription:
    """A cursor, its credits and its doorbell — no event.

    ``mode`` is ``LIVE`` iff the last scan reached the tail; ``backlog``
    counts events rung since then and not yet pushed; ``rung_at`` stamps
    the first ring no scan has answered yet (``None``: none pending).
    """

    __slots__ = (
        "id",
        "stream",
        "channel",
        "batch",
        "policy",
        "queue_max",
        "schema_bytes",
        "codec",
        "lock",
        "cursor_t",
        "cursor_k",
        "seq",
        "acked_seq",
        "credits",
        "mode",
        "backlog",
        "rung_at",
        "dirty",
        "closed",
        "end_reason",
        "pending_end",
        "spills",
        "pushed_batches",
        "pushed_events",
    )

    def __init__(self, sub_id, stream, channel, batch, policy, queue_max):
        self.id = sub_id
        self.stream = stream
        self.channel = channel
        self.batch = batch
        self.policy = policy
        self.queue_max = queue_max
        self.schema_bytes = b""
        self.codec = None
        self.lock = threading.Lock()
        self.cursor_t = -_HUGE
        self.cursor_k = 0
        self.seq = 0
        self.acked_seq = 0
        self.credits = 0
        self.mode = REPLAY
        self.backlog = 0
        self.rung_at: float | None = None
        self.dirty = False
        self.closed = False
        self.end_reason = None
        self.pending_end = None
        self.spills = 0
        self.pushed_batches = 0
        self.pushed_events = 0

    def describe(self) -> dict:
        return {
            "id": self.id,
            "stream": self.stream,
            "mode": self.mode,
            "cursor": [self.cursor_t, self.cursor_k],
            "seq": self.seq,
            "acked_seq": self.acked_seq,
            "credits": self.credits,
            "queued": self.backlog,
            "spills": self.spills,
            "pushed_batches": self.pushed_batches,
            "pushed_events": self.pushed_events,
        }


class SubscriptionHub:
    """Registry of one server's subscriptions; each one is pumped on
    its connection's push thread.

    ``lock_for(stream)`` must return the same lock object the server's
    append handlers hold while mutating that stream — scans and appends
    serialise on it, which is what makes the doorbell lossless.
    ``routes(stream)`` returns ``(route_map, self_shard)`` or ``None``
    (every local event is authoritative); with a map, every scan reads
    the owned time slices only, so a subscriber of a split shard never
    sees the dead (moved-away) range twice.

    ``fault_injector(sub_describe, seq) -> bool`` is a test hook: return
    True to sever the subscriber's connection *instead of* writing the
    pushed frame — the reconnect crash matrix drives it at every wire
    write.
    """

    def __init__(self, db, lock_for, routes):
        self._db = db
        self._lock_for = lock_for
        self._routes = routes
        self.fault_injector = None
        self._lock = threading.Lock()
        self._subs: dict[int, _Subscription] = {}
        #: stream -> its subscriptions, as tuples replaced (never
        #: mutated) under ``_lock`` so ``notify`` reads them lock-free.
        self._by_stream: dict[str, tuple[_Subscription, ...]] = {}
        self._next_id = 1

    def rebind(self, db) -> None:
        """Follow a database swap (replica promotion reopens the store):
        every scan resolves its stream through ``self._db``, so cursors
        simply continue over the replacement database."""
        self._db = db

    # ------------------------------------------------------------- requests

    def subscribe(self, request: dict, channel) -> dict:
        if channel is None:
            raise SubscriptionError(
                "subscriptions require the binary frame protocol"
            )
        stream_name = str(request["stream"])
        policy = str(request.get("policy", "spill"))
        if policy not in POLICIES:
            raise SubscriptionError(
                f"unknown slow-consumer policy {policy!r} (want one of {POLICIES})"
            )
        batch = int(request.get("batch", 512))
        if not 1 <= batch <= 65536:
            raise SubscriptionError(f"batch size {batch} out of range [1, 65536]")
        credits = int(request.get("credits", 4))
        if not 1 <= credits <= frames.MAX_CREDITS:
            raise SubscriptionError(
                f"initial credits {credits} out of range [1, {frames.MAX_CREDITS}]"
            )
        queue_max = int(request.get("queue_max", 8 * batch))
        if queue_max < batch:
            raise SubscriptionError("queue_max must be >= batch size")
        cursor = request.get("cursor")
        if cursor is not None and not (
            isinstance(cursor, (list, tuple))
            and len(cursor) == 2
            and all(type(v) is int for v in cursor)
            and cursor[1] >= 0
        ):
            raise SubscriptionError(
                f"bad cursor {cursor!r}: want [t, k], two ints with k >= 0"
            )

        with self._lock:
            sub_id = self._next_id
            self._next_id += 1
        sub = _Subscription(sub_id, stream_name, channel, batch, policy, queue_max)
        sub.credits = credits

        # Resolve the stream (raising for unknown names) and pin the
        # starting cursor under the stream's server lock so a tail-only
        # subscription's "now" is a consistent point in the append order.
        with self._lock_for(stream_name):
            stream = self._db.get_stream(stream_name)
            sub.schema_bytes = frames.schema_bytes_of(stream.schema)
            sub.codec = PaxCodec(stream.schema)
            if cursor is not None:
                sub.cursor_t, sub.cursor_k = cursor
            elif request.get("from_t") is not None:
                sub.cursor_t, sub.cursor_k = int(request["from_t"]), 0
            else:
                bounds = stream.time_bounds()
                sub.cursor_t = bounds[1] + 1 if bounds else -_HUGE
                sub.cursor_k = 0

        with self._lock:
            self._subs[sub.id] = sub
            self._by_stream[stream_name] = (
                *self._by_stream.get(stream_name, ()), sub
            )
            if OBS.enabled:
                _M_SUBS.inc()
                _M_ACTIVE.set(len(self._subs))
        channel.on_close(lambda: self._drop_channel_sub(sub))
        with sub.lock:
            self._mark_dirty_locked(sub)
        return {
            "sub_id": sub.id,
            "stream": stream_name,
            "cursor": [sub.cursor_t, sub.cursor_k],
            "credits": credits,
        }

    def ack(self, request: dict) -> dict:
        sub = self._subs.get(int(request["sub_id"]))
        if sub is None:
            # Races with unsubscribe/disconnect are routine; acks are
            # advisory, so answer quietly instead of failing the frame.
            return {"sub_id": int(request["sub_id"]), "credits": 0, "unknown": True}
        if OBS.enabled:
            _M_ACKS.inc()
        with sub.lock:
            seq = int(request.get("seq", 0))
            if seq > sub.acked_seq:
                sub.acked_seq = seq
            sub.credits += int(request.get("credits", 1))
            credits = sub.credits
            # Credits matter only to a scan with something to read: a
            # caught-up, un-rung subscription waits for the next bell.
            if (
                sub.mode != LIVE
                or sub.rung_at is not None
                or sub.pending_end is not None
            ):
                self._mark_dirty_locked(sub)
        return {"sub_id": sub.id, "credits": credits}

    def unsubscribe(self, request: dict) -> dict:
        sub = self._subs.get(int(request["sub_id"]))
        if sub is None:
            return {"sub_id": int(request["sub_id"]), "closed": False}
        self._finish(sub, "unsubscribed", "client unsubscribed")
        return {"sub_id": sub.id, "closed": True}

    def notify(self, stream: str, count: int) -> None:
        """The doorbell: *count* events were just appended to *stream*.

        Called by the append handlers once per batch, under the stream's
        server lock.  Touches no event and no socket — it only counts
        the backlog, applies the slow-consumer policy when the backlog
        crosses ``queue_max`` and flags the subscription for a scan.
        """
        for sub in self._by_stream.get(stream, ()):
            with sub.lock:
                if sub.closed:
                    continue
                if sub.rung_at is None:
                    sub.rung_at = time.monotonic()
                before = sub.backlog
                sub.backlog = before + count
                if before <= sub.queue_max < sub.backlog:
                    if sub.policy == "disconnect":
                        sub.pending_end = (
                            "slow_consumer",
                            f"consumer fell more than {sub.queue_max} "
                            "events behind the tail",
                            True,
                        )
                        if OBS.enabled:
                            _M_SLOW_DISCONNECTS.inc()
                    else:
                        # Spill: storage is the buffer, so nothing is
                        # dropped — only the excursion is counted.
                        sub.spills += 1
                        if OBS.enabled:
                            _M_SPILLS.inc()
                self._mark_dirty_locked(sub)

    # ------------------------------------------------------------ lifecycle

    def close_all(self, reason: str = "server_closing", timeout: float = 2.0):
        """End every subscription with a typed notice and wait (bounded)
        for the notices to reach the sockets.  Used by server shutdown so
        parked subscribers see ``server_closing``, not a hang."""
        with self._lock:
            subs = list(self._subs.values())
        futures = []
        for sub in subs:
            future = self._finish(sub, reason, f"subscription ended: {reason}")
            if future is not None:
                futures.append(future)
        deadline = time.monotonic() + timeout
        for future in futures:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                future.result(timeout=remaining)
            except Exception:
                pass

    def on_routes_changed(self, stream_affected) -> None:
        """A new shard-map epoch was installed.  End subscriptions on
        streams whose ownership the map touches — the routed subscriber
        re-resolves the owner and resumes from its cursor."""
        with self._lock:
            subs = [
                s for s in self._subs.values() if stream_affected(s.stream)
            ]
        for sub in subs:
            self._finish(
                sub,
                "ownership_changed",
                "shard map epoch changed; resubscribe at the current owner",
            )

    def stats(self) -> dict:
        with self._lock:
            subs = list(self._subs.values())
        return {
            "active": len(subs),
            "subs": [sub.describe() for sub in subs],
        }

    # ------------------------------------------------------------- internal

    def _mark_dirty_locked(self, sub: _Subscription) -> None:
        """Caller holds ``sub.lock``."""
        if not sub.dirty:
            sub.dirty = sub.channel.run(lambda: self._run_pump(sub))

    def _run_pump(self, sub: _Subscription) -> None:
        try:
            self._pump(sub)
        except Exception as error:  # never kill the push thread
            try:
                self._finish(sub, "error", f"subscription failed: {error}")
            except Exception:
                pass

    def _pump(self, sub: _Subscription) -> None:
        """Push batches for one subscription until it can't progress
        (no credits, nothing rung, or closed)."""
        while True:
            with sub.lock:
                sub.dirty = False
                pending = sub.pending_end
                sub.pending_end = None
                if pending is None:
                    if sub.closed or sub.credits <= 0:
                        return
                    if sub.mode == LIVE and sub.rung_at is None:
                        return  # at the tail and nothing appended since
                    rung_at, sub.rung_at = sub.rung_at, None
            if pending is not None:
                reason, message, sever = pending
                self._finish(sub, reason, message, sever=sever)
                return
            if not self._pump_replay(sub, rung_at):
                return

    def _pump_replay(self, sub: _Subscription, rung_at) -> bool:
        """One scan: read up to a batch from the cursor under the
        stream's server lock, advance the cursor, push outside the lock.
        Returns True when a batch was pushed (more pumping may be
        possible)."""
        with self._lock_for(sub.stream):
            try:
                stream = self._db.get_stream(sub.stream)
            except ChronicleError:
                self._finish(sub, "stream_dropped", "stream no longer exists")
                return False
            routes = self._routes(sub.stream)
            # Only the connection's push thread moves the cursor.  The
            # cursor's k events at t lead the read (fewer if a client
            # cursor claims more than exist); one row past the batch
            # tells whether this scan reached the tail.
            cursor = (sub.cursor_t, sub.cursor_k)
            limit = cursor[1] + sub.batch + 1
            if routes is None:
                read = columnar.read_events(stream, cursor[0], _HUGE,
                                            limit=limit)
            else:
                route_map, self_shard = routes
                lo, hi = stream.time_bounds(tiered=True) or (0, -1)
                owned = route_map.owned_intervals(
                    sub.stream, self_shard, max(cursor[0], lo), hi
                )
                query = Query(SelectStar(), sub.stream, cursor[0], _HUGE,
                              limit=limit)
                read = execute(self._db, query, materialize=False,
                               owned=owned)
            skip = min(cursor[1], bisect_right(read.timestamps, cursor[0]))
            batch = read[skip : skip + sub.batch]
            caught_up = len(read) - skip <= sub.batch
            # This node may own a bounded slice of the stream (a split
            # moved the tail away): the end of the owned range is not a
            # tail to wait at.
            bounded = caught_up and routes is not None and (
                route_map.owner_of(sub.stream, _HUGE - 1) != self_shard
            )
            with sub.lock:
                if sub.closed:
                    return False
                if OBS.enabled:
                    _M_QUEUE_DEPTH.observe(sub.backlog)
                if caught_up and not bounded:
                    sub.mode = LIVE
                    sub.backlog = 0
                else:
                    sub.mode = REPLAY
                    sub.backlog = max(0, sub.backlog - len(batch))
                if batch:
                    sub.credits -= 1
                    sub.seq += 1
                    seq = sub.seq
                    sub.cursor_t, sub.cursor_k = next_cursor(
                        cursor, batch.timestamps
                    )
        if batch:
            self._push_events(sub, seq, batch, rung_at)
            return not sub.channel.closed
        if bounded:
            # Only after every locally owned event has been pushed: the
            # typed end tells the routed subscriber to advance to the
            # next owner.
            self._finish(
                sub,
                "ownership_boundary",
                "local ownership ends at the cursor; "
                "resubscribe at the next owner",
            )
        return False

    def _push_events(self, sub, seq, batch, rung_at) -> None:
        payload = frames.encode_sub_events_payload(
            sub.id,
            seq,
            frames.encode_batch_payload(
                sub.stream, sub.schema_bytes, sub.codec, batch
            ),
        )
        injector = self.fault_injector
        if injector is not None and injector(sub.describe(), seq):
            # Crash-matrix hook: the connection dies *instead of* this
            # wire write, exactly like a peer vanishing mid-push.
            sub.channel.close()
            return
        # Counted before the wire write: a subscriber that has the batch
        # in hand must never read stats that do not include it yet.  The
        # lag ends where the encoded frame is handed to the write.
        sub.pushed_batches += 1
        sub.pushed_events += len(batch)
        if OBS.enabled:
            _M_BATCHES.inc()
            _M_EVENTS.inc(len(batch))
            if rung_at is not None:
                _M_LAG.observe(time.monotonic() - rung_at)
        sub.channel.send(frames.OP_SUB_EVENTS, payload)

    def _finish(self, sub, reason, message, sever=False, notify=True):
        """Idempotently end a subscription: typed END push (when the
        connection still stands), registry removal.  Returns the END
        frame's write future, if one was sent."""
        with sub.lock:
            if sub.closed:
                return None
            sub.closed = True
            sub.end_reason = reason
        future = None
        if notify and not sub.channel.closed:
            future = sub.channel.send(
                frames.OP_SUB_END,
                frames.encode_sub_end_payload(sub.id, reason, message),
            )
        if sever:
            if future is not None:
                try:
                    future.result(timeout=1.0)
                except Exception:
                    pass
            sub.channel.close_after_answers()
        self._remove(sub)
        return future

    def _drop_channel_sub(self, sub: _Subscription) -> None:
        self._finish(sub, "transport", "connection closed", notify=False)

    def _remove(self, sub: _Subscription) -> None:
        with self._lock:
            self._subs.pop(sub.id, None)
            peers = tuple(
                p for p in self._by_stream.get(sub.stream, ()) if p is not sub
            )
            if peers:
                self._by_stream[sub.stream] = peers
            else:
                self._by_stream.pop(sub.stream, None)
            if OBS.enabled:
                _M_ACTIVE.set(len(self._subs))
