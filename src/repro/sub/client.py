"""Client-side subscription handle.

A :class:`SubscriptionHandle` is produced by
:meth:`BinaryChronicleClient.subscribe` and fed by the client's reader
thread: pushed ``OP_SUB_EVENTS`` frames land (undecoded) in an internal
queue and are decoded on the consumer's thread.  The handle tracks its
own ``(t, k)`` cursor over consumed events — the resume token a
reconnecting subscriber passes to a fresh ``subscribe`` for an
exactly-once continuation — and, with ``auto_ack`` (the default),
returns one credit to the server per consumed batch, which is what
keeps the push window sliding.
"""

from __future__ import annotations

import queue as queue_mod
import threading

from repro.errors import SubscriptionClosed
from repro.events.event import ColumnarEvents
from repro.net import frames
from repro.sub.hub import next_cursor

_WAKE = object()  # queued by close(): the consumer re-checks ``_closed``


class BatchConsumer:
    """``events``, ``take`` and the ``with`` block over a subclass's
    ``batches`` and ``close``."""

    def events(self, timeout: float | None = None):
        """Flattened :meth:`batches` — yield one event at a time."""
        for batch in self.batches(timeout=timeout):
            yield from batch

    def take(self, n: int, timeout: float | None = None) -> list:
        """Collect exactly *n* events (or raise on close/timeout)."""
        out: list = []
        for event in self.events(timeout=timeout):
            out.append(event)
            if len(out) >= n:
                break
        return out

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SubscriptionHandle(BatchConsumer):
    """Iterate pushed event batches; resumable via :attr:`cursor`."""

    def __init__(
        self,
        client,
        sub_id: int,
        stream: str,
        cursor: tuple[int, int],
        credits: int,
        auto_ack: bool = True,
    ):
        self.client = client
        self.sub_id = int(sub_id)
        self.stream = stream
        self.credits = credits
        self.auto_ack = auto_ack
        self._cursor_t, self._cursor_k = int(cursor[0]), int(cursor[1])
        self._incoming: queue_mod.Queue = queue_mod.Queue()
        self._lock = threading.Lock()
        self._closed: SubscriptionClosed | None = None
        self._last_seq = 0
        client._register_push_handler(self.sub_id, self)

    # ------------------------------------------------------------ reader side

    def _on_push(self, op: int, payload: bytes) -> None:
        """Runs on the client's reader thread — enqueue only."""
        self._incoming.put((op, payload))

    def _on_transport_error(self, error: Exception) -> None:
        self._incoming.put(
            (
                None,
                SubscriptionClosed(
                    f"connection lost: {error}", reason="transport"
                ),
            )
        )

    # ---------------------------------------------------------- consumer side

    @property
    def cursor(self) -> tuple[int, int]:
        """The resume token: every event strictly before ``t`` plus the
        first ``k`` events at ``t`` have been consumed."""
        with self._lock:
            return (self._cursor_t, self._cursor_k)

    @property
    def closed(self) -> bool:
        return self._closed is not None

    @property
    def end_reason(self) -> str | None:
        return self._closed.reason if self._closed is not None else None

    def batches(self, timeout: float | None = None):
        """Yield lists of :class:`Event` as the server pushes them.

        Ends by raising :class:`SubscriptionClosed` when the server
        terminates the subscription (carrying the typed reason), or
        :class:`TimeoutError` when *timeout* seconds pass without a
        batch.  ``reason == "unsubscribed"`` (our own :meth:`close`)
        ends iteration silently.
        """
        while True:
            if self._closed is not None:
                if self._closed.reason == "unsubscribed":
                    return
                raise self._closed
            try:
                op, payload = self._incoming.get(timeout=timeout)
            except queue_mod.Empty:
                raise TimeoutError(
                    f"no pushed batch within {timeout}s"
                ) from None
            if op is _WAKE:
                continue  # close() ran: the loop's top returns
            if op is None:  # transport error sentinel
                self._close_with(payload)
                raise payload
            if op == frames.OP_SUB_END:
                _, reason, message = frames.split_sub_end_payload(payload)
                error = SubscriptionClosed(
                    message or f"subscription ended: {reason}", reason=reason
                )
                self._close_with(error, ended=True)
                if reason == "unsubscribed":
                    return
                raise error
            _, seq, batch_payload = frames.split_sub_events_payload(payload)
            _, _, timestamps, columns = frames.decode_batch_payload(
                batch_payload
            )
            with self._lock:
                self._last_seq = seq
                self._cursor_t, self._cursor_k = next_cursor(
                    (self._cursor_t, self._cursor_k), timestamps
                )
            yield ColumnarEvents(timestamps, columns).materialize()
            if self.auto_ack and self._closed is None:
                self.ack(seq)

    def ack(self, seq: int | None = None, credits: int = 1) -> None:
        """Grant the server *credits* more batches (fire-and-forget)."""
        try:
            self.client.sub_ack_async(
                self.sub_id, seq if seq is not None else self._last_seq, credits
            )
        except Exception:
            pass  # a dead connection surfaces via the push path

    def close(self) -> None:
        """Unsubscribe (idempotent); a consumer blocked in batches() returns."""
        if self._closed is None:
            self._close_with(
                SubscriptionClosed("closed by client", reason="unsubscribed")
            )
            self._incoming.put((_WAKE, None))
            try:
                self.client.unsubscribe(self.sub_id)
            except Exception:
                pass

    def _close_with(
        self, error: SubscriptionClosed, ended: bool = False
    ) -> None:
        self._closed = error
        self.client._unregister_push_handler(self.sub_id, ended)

    def __iter__(self):
        return self.events()
