"""Client for the ChronicleDB network protocol.

:class:`BinaryChronicleClient` speaks the binary frame protocol
(:mod:`repro.net.frames`): requests carry correlation ids and may be
**pipelined** — ``*_async`` methods return futures and multiple frames
can be in flight on one connection; a background reader thread matches
responses to futures by correlation id, so completions may arrive out
of request order.
"""

from __future__ import annotations

import itertools
import socket
import threading
from concurrent.futures import Future

from repro.errors import ChronicleError, ProtocolError, StaleRouteError
from repro.events.event import ColumnarEvents, Event
from repro.events.schema import EventSchema
from repro.events.serializer import PaxCodec
from repro.net import frames


class RemoteError(ChronicleError):
    """The server reported a failure."""


class ConnectionClosed(RemoteError):
    """The peer closed the socket: a failure of the connection, not of
    any request — cured only by a fresh client."""


def _error_from_payload(data: dict) -> ChronicleError:
    """A server error payload → the typed exception to raise.

    Stale-route rejections come back as ``error_kind: "stale_route"``
    with the node's current epoch and wire map attached, so the router
    can adopt the map and retry without a ``map_sync`` round trip.
    """
    message = data.get("error", "unknown server error")
    if data.get("error_kind") == "stale_route":
        return StaleRouteError(
            message, epoch=data.get("epoch"), wire_map=data.get("map")
        )
    return RemoteError(message)


class BinaryChronicleClient:
    """Pipelined client for the binary frame protocol.

    Blocking methods plus ``*_async`` variants returning
    :class:`~concurrent.futures.Future`, and :meth:`replicate_raw` for
    zero-copy replication fan-out.  A reader thread resolves responses
    by correlation id; a connection-level failure (EOF, reset, a
    malformed frame from the peer) fails every in-flight future, and
    the client is dead afterwards — callers reconnect by building a new
    client, which is what resets any half-read buffer state
    (:class:`repro.cluster.pool.ClientPool` does this automatically).
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.timeout = timeout
        self._sock = socket.create_connection((host, port), timeout=timeout)
        # The reader thread owns all receives and blocks indefinitely;
        # request timeouts are enforced on the futures instead.
        self._sock.settimeout(None)
        self._file = self._sock.makefile("rb")
        self._corr = itertools.count(1)
        self._pending: dict[int, Future] = {}
        #: sub_id -> subscription handle (receives pushed frames).
        self._push_handlers: dict[int, object] = {}
        #: Pushes that raced ahead of their subscribe response (the hub
        #: may write the first batch before the OP_OK frame); drained to
        #: the handle when it registers.  The hub pushes at most the
        #: initial credits before the first ack, and refuses more than
        #: ``frames.MAX_CREDITS``; one end notice may follow.
        self._orphan_pushes: dict[int, list] = {}
        #: Unregistered sub_ids whose END notice has not arrived yet:
        #: their in-flight pushes are dropped, not stashed (hub ids are
        #: never reused).
        self._unsubscribed: set[int] = set()
        self._send_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._dead: Exception | None = None
        #: stream -> (schema, codec, canonical schema bytes)
        self._schemas: dict[str, tuple[EventSchema, PaxCodec, bytes]] = {}
        self._reader_thread = threading.Thread(
            target=self._read_loop, daemon=True, name="chronicle-bin-reader"
        )
        self._reader_thread.start()

    # ------------------------------------------------------------- plumbing

    def _read_loop(self) -> None:
        try:
            while True:
                header = self._file.read(frames.HEADER_SIZE)
                if len(header) < frames.HEADER_SIZE:
                    raise ConnectionClosed("server closed the connection")
                op, corr_id, payload_len = frames.decode_header(header)
                payload = self._file.read(payload_len)
                if len(payload) < payload_len:
                    raise ConnectionClosed("server closed the connection")
                self._dispatch(op, corr_id, payload)
        except Exception as error:
            self._fail_all(error)
            # The reader owns the buffered file object: closing it from
            # another thread would deadlock on the buffer lock while
            # this thread is blocked in a read.
            try:
                self._file.close()
            except OSError:
                pass

    def _dispatch(self, op: int, corr_id: int, payload: bytes) -> None:
        if op in frames.PUSH_OPS:
            # Pushed frames answer no request: route by sub_id.
            sub_id = frames.push_sub_id(payload)
            with self._pending_lock:
                handler = self._push_handlers.get(sub_id)
                if handler is None:
                    if sub_id in self._unsubscribed:
                        # In flight past an unsubscribe: drop it; the
                        # END notice is the last frame for this id.
                        if op == frames.OP_SUB_END:
                            self._unsubscribed.discard(sub_id)
                        return
                    # Raced ahead of the subscribe response (bounded).
                    stash = self._orphan_pushes.setdefault(sub_id, [])
                    if len(stash) <= frames.MAX_CREDITS:
                        stash.append((op, payload))
                    return
            handler._on_push(op, payload)
            return
        with self._pending_lock:
            future = self._pending.pop(corr_id, None)
        if future is None:
            # A response with no waiter: the stream is desynchronized.
            raise ProtocolError(
                f"unmatched response frame (corr_id {corr_id})"
            )
        if op == frames.OP_OK:
            future.set_result(frames.decode_json_payload(payload)["result"])
        elif op == frames.OP_OK_BATCH:
            future.set_result(_decode_batch_result(payload))
        elif op == frames.OP_ERR:
            future.set_exception(
                _error_from_payload(frames.decode_json_payload(payload))
            )
        else:
            raise ProtocolError(f"unexpected response op 0x{op:02x}")

    def _fail_all(self, error: Exception) -> None:
        with self._pending_lock:
            if self._dead is None:
                self._dead = error
            pending = list(self._pending.values())
            self._pending.clear()
            handlers = list(self._push_handlers.values())
            self._push_handlers.clear()
            self._orphan_pushes.clear()
            self._unsubscribed.clear()
        for future in pending:
            if not future.done():
                future.set_exception(error)
        for handler in handlers:
            try:
                handler._on_transport_error(error)
            except Exception:
                pass
        try:
            # shutdown() wakes a reader blocked in recv with EOF, which
            # close() alone does not while the file object holds a ref.
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def _submit(self, op: int, payload: bytes) -> Future:
        future: Future = Future()
        with self._pending_lock:
            if self._dead is not None:
                raise self._dead
            corr_id = next(self._corr) & 0xFFFFFFFF
            self._pending[corr_id] = future
        frame = frames.encode_frame(op, corr_id, payload)
        try:
            with self._send_lock:
                self._sock.sendall(frame)
        except OSError as error:
            with self._pending_lock:
                self._pending.pop(corr_id, None)
            raise error
        return future

    def _call(self, op: int, payload: bytes):
        future = self._submit(op, payload)
        try:
            return future.result(timeout=self.timeout)
        except TimeoutError:
            raise socket.timeout(
                f"no response within {self.timeout}s"
            ) from None

    def _call_json(self, request: dict):
        return self._call(frames.OP_JSON, frames.encode_json_payload(request))

    def _schema_entry(self, stream: str):
        entry = self._schemas.get(stream)
        if entry is None:
            data = self._call_json({"op": "schema", "stream": stream})
            entry = self._cache_schema(stream, EventSchema.from_dict(data))
        return entry

    def _cache_schema(self, stream: str, schema: EventSchema):
        entry = (schema, PaxCodec(schema), frames.schema_bytes_of(schema))
        self._schemas[stream] = entry
        return entry

    # ------------------------------------------------------------------ API

    def call(self, request: dict):
        """Send a raw protocol request dict (framed as ``OP_JSON``)."""
        return self._call_json(request)

    def ping(self) -> bool:
        return self._call_json({"op": "ping"}) == "pong"

    def schema(self, stream: str) -> EventSchema:
        """The stream's schema (asked once per stream, then cached)."""
        return self._schema_entry(stream)[0]

    def create_stream(self, name: str, schema: EventSchema) -> None:
        self._call_json(
            {"op": "create_stream", "name": name, "schema": schema.to_dict()}
        )
        self._cache_schema(name, schema)

    def append(
        self, stream: str, event: Event, epoch: int | None = None
    ) -> None:
        """One event is a one-row batch on the wire."""
        self.append_batch(stream, [event], epoch=epoch)

    def append_batch(
        self, stream: str, events, epoch: int | None = None
    ) -> int:
        return self.append_batch_async(stream, events, epoch=epoch).result(
            timeout=self.timeout
        )

    def append_batch_async(
        self, stream: str, events, epoch: int | None = None
    ) -> Future:
        """Submit a columnar batch without waiting — the pipelined hot
        path.

        *events* is a :class:`ColumnarEvents` batch or events transposed
        into one (:meth:`ColumnarEvents.of`).  A batch that does not fit
        the stream's schema — wrong arity, a value its column cannot
        hold — raises :class:`SchemaError` here, before anything is
        sent.  With *epoch*, the batch goes out as
        ``OP_APPEND_BATCH_EPOCH`` — the same payload behind a u32
        map-epoch prefix the server checks before applying.
        """
        schema, codec, schema_bytes = self._schema_entry(stream)
        payload = frames.encode_batch_payload(
            stream, schema_bytes, codec, ColumnarEvents.of(events, schema.arity)
        )
        if epoch is not None:
            return self._submit(
                frames.OP_APPEND_BATCH_EPOCH,
                frames.encode_epoch_payload(epoch, payload),
            )
        return self._submit(frames.OP_APPEND_BATCH, payload)

    def query(self, sql: str):
        """Run SQL; returns a list of events or a dict of aggregates."""
        result = self._call_json({"op": "query", "sql": sql})
        if "aggregates" in result:
            return result["aggregates"]
        if "groups" in result:
            return result["groups"]
        # SELECT * arrives as one columnar batch (``OP_OK_BATCH``),
        # already decoded to events by the reader thread.
        return result["events"]

    def query_partials(self, sql: str) -> dict:
        return self._call_json({"op": "query", "sql": sql, "partials": True})[
            "partials"
        ]

    def replicate_batch(
        self, stream: str, events, schema: EventSchema | None = None
    ) -> int:
        """Apply a primary's batch locally without re-replicating it."""
        if schema is not None:
            entry = self._cache_schema(stream, schema)
        else:
            entry = self._schema_entry(stream)
        schema, codec, schema_bytes = entry
        payload = frames.encode_batch_payload(
            stream, schema_bytes, codec, ColumnarEvents.of(events, schema.arity)
        )
        return self._call(frames.OP_REPLICATE_BATCH, payload)

    def replicate_raw(self, payload: bytes) -> int:
        """Forward an already-encoded batch payload unmodified — the
        zero-copy replication path (primary → replica ships the exact
        bytes the client sent)."""
        return self._call(frames.OP_REPLICATE_BATCH, payload)

    def catchup(self, stream: str, t_start: int, t_end: int) -> dict:
        """Fetch ``{"schema": ..., "events": [Event, ...]}`` for a
        timestamp range; the reply travels in the same columnar batch
        format the ingest path uses."""
        return self._call(
            frames.OP_CATCHUP,
            frames.encode_json_payload(
                {"stream": stream, "t_start": t_start, "t_end": t_end}
            ),
        )

    def health(self) -> dict:
        return self._call_json({"op": "health"})

    def map_sync(self) -> dict:
        """The server's current shard map: ``{"epoch", "map"}``."""
        return self._call_json({"op": "map_sync"})

    def map_update(self, wire_map: dict) -> dict:
        """Install a shard map on the server (newer epochs only);
        returns the server's resulting ``{"epoch": ...}``."""
        return self._call_json({"op": "map_update", "map": wire_map})

    def flush(self) -> None:
        self._call_json({"op": "flush"})

    def list_streams(self) -> list[str]:
        return self._call_json({"op": "list_streams"})

    def stats(self, stream: str | None = None) -> dict:
        request = {"op": "stats"}
        if stream is not None:
            request["stream"] = stream
        return self._call_json(request)

    # -------------------------------------------------------- subscriptions

    def subscribe(
        self,
        stream: str,
        from_t: int | None = None,
        cursor: tuple[int, int] | None = None,
        credits: int = 4,
        batch: int = 512,
        policy: str = "spill",
        queue_max: int | None = None,
        auto_ack: bool = True,
    ):
        """Open a live subscription; returns a
        :class:`repro.sub.client.SubscriptionHandle`.

        ``from_t`` replays history from that timestamp before the live
        tail; ``cursor`` (a ``(t, k)`` resume token from a previous
        handle) resumes exactly after the last consumed event.  Neither
        → live tail only.  ``credits``/``batch`` bound how much the
        server may push unacknowledged; ``policy`` is the slow-consumer
        policy (``"spill"`` or ``"disconnect"``).
        """
        from repro.sub.client import SubscriptionHandle

        request: dict = {
            "stream": stream,
            "credits": credits,
            "batch": batch,
            "policy": policy,
        }
        if cursor is not None:
            request["cursor"] = [int(cursor[0]), int(cursor[1])]
        elif from_t is not None:
            request["from_t"] = int(from_t)
        if queue_max is not None:
            request["queue_max"] = queue_max
        result = self._call(
            frames.OP_SUBSCRIBE, frames.encode_json_payload(request)
        )
        return SubscriptionHandle(
            self,
            sub_id=result["sub_id"],
            stream=stream,
            cursor=tuple(result["cursor"]),
            credits=credits,
            auto_ack=auto_ack,
        )

    def _register_push_handler(self, sub_id: int, handler) -> None:
        with self._pending_lock:
            if self._dead is not None:
                raise self._dead
            self._push_handlers[sub_id] = handler
            stashed = self._orphan_pushes.pop(sub_id, ())
        for op, payload in stashed:
            handler._on_push(op, payload)

    def _unregister_push_handler(self, sub_id: int, ended: bool) -> None:
        """Detach a handle; *ended* says its END notice has already
        arrived, so no further frame for *sub_id* can follow."""
        with self._pending_lock:
            self._push_handlers.pop(sub_id, None)
            self._orphan_pushes.pop(sub_id, None)
            if ended:
                self._unsubscribed.discard(sub_id)
            else:
                self._unsubscribed.add(sub_id)

    def sub_ack_async(self, sub_id: int, seq: int, credits: int = 1) -> Future:
        """Acknowledge progress and grant *credits* more batches."""
        return self._submit(
            frames.OP_SUB_ACK,
            frames.encode_json_payload(
                {"sub_id": sub_id, "seq": seq, "credits": credits}
            ),
        )

    def unsubscribe(self, sub_id: int) -> dict:
        return self._call(
            frames.OP_UNSUBSCRIBE,
            frames.encode_json_payload({"sub_id": sub_id}),
        )

    def close(self) -> None:
        self._fail_all(RemoteError("client closed"))
        self._reader_thread.join(timeout=5)

    def __enter__(self) -> "BinaryChronicleClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _decode_batch_result(payload: bytes) -> dict:
    """An ``OP_OK_BATCH`` payload → the catch-up / ``SELECT *`` shape."""
    _, schema, timestamps, columns = frames.decode_batch_payload(payload)
    events = ColumnarEvents(timestamps, columns).materialize()
    return {"schema": schema, "events": events}
