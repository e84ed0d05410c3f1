"""Connection core of the ChronicleDB wire server: blocking sockets and
a thread pair per connection.  (The module keeps its old name because
the benchmark tracer patches ``PushChannel.send`` by import path.)

An accept thread hands each socket to a :class:`_Connection`.  Its
**reader** reads frames, answers the read-only "independent" ops itself
(so they may overtake in-flight writes) and queues every other request
for its **worker**, which runs them in receipt order and writes each
response under the request's correlation id.  A **push** thread,
started by the connection's first subscription, runs the hub's pumps
for that connection's subscriptions and writes their frames itself.
:class:`repro.net.server.ChronicleServer` supplies the handlers.
"""

from __future__ import annotations

import itertools
import queue
import socket
import threading
import time
from concurrent.futures import Future

from repro.errors import ProtocolError
from repro.net import frames
from repro.obs import OBS

#: ``OP_JSON`` control ops the reader answers itself.  All are
#: read-only, so a ping may overtake a large append still applying.
INDEPENDENT_OPS = frozenset(
    {"ping", "health", "stats", "list_streams", "schema"}
)

#: Bound on the request bytes a connection queues for its worker: past
#: it the reader stops reading and a pipelining client backs up into
#: the kernel socket buffer.
_READ_BUFFER = 16 * 1024 * 1024

#: Binary ops the reader answers itself.  Credit top-ups must not queue
#: behind large in-flight appends on the same connection, or a
#: subscriber that also writes could starve itself.
_INDEPENDENT_BINARY_OPS = frozenset({frames.OP_SUB_ACK})

#: How long ``stop`` waits, in total, for connection threads to end.
_JOIN_SECONDS = 5.0

_M_FRAMES_IN = OBS.counter("net.frames_in")
_M_BYTES_IN = OBS.histogram("net.frame_bytes_in", smallest=1.0)
_M_BYTES_OUT = OBS.histogram("net.frame_bytes_out", smallest=1.0)
_M_HANDLE_S = OBS.histogram("net.frame_handle_seconds")
_M_DEPTH = OBS.gauge("net.pipeline_depth")

#: What ``PushChannel.send`` returns for a frame it wrote inline.
_WRITTEN = Future()
_WRITTEN.set_result(None)


class PushChannel:
    """Thread-safe push side of one server connection.

    Handlers that register long-lived state against a connection (the
    subscription hub) hold one of these: ``run`` queues work for the
    connection's push thread, ``send`` writes a frame, ``on_close``
    registers cleanup for when the peer disconnects, and ``close``
    severs the connection.  Pushed frames use ``corr_id`` 0 — they
    answer no request.
    """

    def __init__(self, connection: "_Connection"):
        self._connection = connection
        self._callbacks: list = []
        self._closed = False
        self._lock = threading.Lock()
        self._tasks: queue.SimpleQueue | None = None  # made by 1st run
        self._writer: threading.Thread | None = None

    @property
    def closed(self) -> bool:
        return self._closed

    def run(self, task) -> bool:
        """Queue ``task()`` for the push thread, starting it on first
        use; ``False`` if the channel is already closed."""
        with self._lock:
            if self._closed:
                return False
            if self._tasks is None:
                self._tasks = queue.SimpleQueue()
                # Bound before the first task is queued, so the thread
                # always recognises itself in ``send``.
                self._writer = self._connection.spawn("push", self._push_loop)
            self._tasks.put(task)
        return True

    def send(self, op: int, payload: bytes, corr_id: int = 0):
        """Write a frame: at once on the push thread, else queued for
        it.  Returns a Future that resolves once it is written, or
        ``None`` if the channel is already closed."""
        if threading.current_thread() is self._writer:
            if self._closed:
                return None
            self._connection.write(op, corr_id, payload)
            return _WRITTEN
        future = Future()

        def write():
            self._connection.write(op, corr_id, payload)
            future.set_result(None)

        return future if self.run(write) else None

    def _push_loop(self) -> None:
        while (task := self._tasks.get()) is not None:
            task()

    def on_close(self, callback) -> None:
        """Run ``callback()`` once when the connection goes away.  Fires
        immediately if it already has."""
        with self._lock:
            if not self._closed:
                self._callbacks.append(callback)
                return
        callback()

    def close(self) -> None:
        """Sever the connection from any thread."""
        self._connection.sever()
        self._mark_closed()

    def close_after_answers(self) -> None:
        """Sever the connection once the requests it already received
        are answered (slow-consumer policy): only the read side shuts
        now, so the reader ends and the worker severs the rest when it
        has replied to what was queued."""
        try:
            self._connection.sock.shutdown(socket.SHUT_RD)
        except OSError:
            pass
        self._mark_closed()

    def _mark_closed(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            callbacks, self._callbacks = self._callbacks, []
            if self._tasks is not None:
                self._tasks.put(None)  # after every queued task
        for callback in callbacks:
            try:
                callback()
            except Exception:
                pass


class _Connection:
    """One accepted socket and its reader, worker and push thread."""

    def __init__(self, core: "ServerCore", sock: socket.socket, number: int):
        self.core, self.sock = core, sock
        self.name = f"chronicle-conn-{number}"
        self.threads: list[threading.Thread] = []
        self.channel = PushChannel(self)
        self._write_lock = threading.Lock()
        # The worker's queue (``None`` ends it) and its request bytes.
        self._requests = queue.SimpleQueue()
        self._queued = 0
        self._room = threading.Condition()

    def spawn(self, role: str, target) -> threading.Thread:
        thread = threading.Thread(
            target=target, daemon=True, name=f"{self.name}-{role}"
        )
        thread.start()
        self.threads.append(thread)
        return thread

    def write(self, op: int, corr_id: int, payload: bytes) -> None:
        data = frames.encode_frame(op, corr_id, payload)
        try:
            with self._write_lock:
                self.sock.sendall(data)
        except OSError:
            return  # the peer is gone; the reader sees it too
        if OBS.enabled:
            _M_BYTES_OUT.observe(len(data))

    def fail(self, corr_id: int, error: Exception) -> None:
        payload = frames.encode_json_payload({"error": str(error)})
        self.write(frames.OP_ERR, corr_id, payload)

    def sever(self) -> None:
        """Shut the socket down both ways: the peer sees EOF at once and
        a thread blocked reading or writing it wakes with an error."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def _read_loop(self) -> None:
        try:
            with self.sock.makefile("rb") as rfile:
                while self._read_frame(rfile):
                    pass
        except OSError:
            pass
        finally:
            self._requests.put(None)

    def _read_frame(self, rfile) -> bool:
        """Answer or queue one frame; ``False`` ends the connection."""
        header = rfile.read(frames.HEADER_SIZE)
        if len(header) < frames.HEADER_SIZE:
            return False
        try:
            op, corr_id, payload_len = frames.decode_header(header)
        except ProtocolError as error:
            self.fail(0, error)
            return False
        payload = rfile.read(payload_len)
        if len(payload) < payload_len:
            return False
        if OBS.enabled:
            _M_FRAMES_IN.inc()
            _M_BYTES_IN.observe(frames.HEADER_SIZE + payload_len)
        handler = self.core.handler
        if op == frames.OP_JSON:
            try:
                request = frames.decode_json_payload(payload)
                if not isinstance(request, dict):
                    raise ProtocolError(
                        "bad JSON frame payload: a request is an object, "
                        f"not {type(request).__name__}"
                    )
            except ProtocolError as error:
                self.fail(corr_id, error)
                return True
            work, args = handler.handle_json_framed, (request,)
            independent = request.get("op") in INDEPENDENT_OPS
        else:
            work, args = handler.handle_binary, (op, payload, self.channel)
            independent = op in _INDEPENDENT_BINARY_OPS
        if independent:
            self._answer(corr_id, work, args)
            return True
        with self._room:
            while self._queued and self._queued + payload_len > _READ_BUFFER:
                self._room.wait()
            self._queued += payload_len
        self._requests.put((corr_id, work, args, payload_len))
        if OBS.enabled:
            _M_DEPTH.set(self._requests.qsize())
        return True

    def _work_loop(self) -> None:
        try:
            # Requests received before a half-close are answered; after
            # ``stop`` nothing more is applied.
            while (request := self._requests.get()) is not None:
                corr_id, work, args, size = request
                if not self.core.stopped:
                    self._answer(corr_id, work, args)
                with self._room:
                    self._queued -= size
                    self._room.notify()
        finally:
            self._close()

    def _answer(self, corr_id: int, work, args) -> None:
        started = time.perf_counter() if OBS.enabled else 0.0
        response_op, response_payload = work(*args)
        if OBS.enabled:
            _M_HANDLE_S.observe(time.perf_counter() - started)
        self.write(response_op, corr_id, response_payload)

    def _close(self) -> None:
        """The worker's last step, once the reader is done."""
        self.sever()
        # Ends the hub's subscriptions here, then the push thread, whose
        # writes now fail fast.
        self.channel._mark_closed()
        if self.channel._writer is not None:
            self.channel._writer.join()
        self.sock.close()
        with self.core._lock:
            self.core._connections.discard(self)


class ServerCore:
    """Owns the listener, the accept thread, and the connections."""

    def __init__(self, handler, host: str, port: int):
        """``handler`` provides ``handle_json_framed(request)`` and
        ``handle_binary(op, payload, channel)``, each returning
        ``(response_op, payload_bytes)``."""
        self.handler = handler
        # Bound here so host/port are known before start(); sets
        # SO_REUSEADDR on POSIX, so a restarted node rebinds its port.
        self._listener = socket.create_server((host, port), backlog=100)
        self.host, self.port = self._listener.getsockname()[:2]
        self._connections: set[_Connection] = set()
        self._lock = threading.Lock()
        self._numbers = itertools.count(1)
        self.stopped = False
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True, name="chronicle-accept"
        )

    def start(self) -> None:
        self._accept_thread.start()

    @property
    def live_connections(self) -> int:
        with self._lock:
            return len(self._connections)

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                if self.stopped:
                    return
                continue
            # Replies are single writes the peer waits on: without
            # TCP_NODELAY, Nagle plus delayed ACK holds each ~40 ms.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            connection = _Connection(self, sock, next(self._numbers))
            with self._lock:
                if self.stopped:
                    sock.close()
                    return
                self._connections.add(connection)
            connection.spawn("reader", connection._read_loop)
            connection.spawn("worker", connection._work_loop)

    def stop(self) -> None:
        with self._lock:
            if self.stopped:
                return
            self.stopped = True
            connections = list(self._connections)
        try:  # wakes the blocked accept (Linux)
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        # Sever live connections so peers observe the stop immediately —
        # failover detection depends on a dead primary dropping its
        # connections, not leaving them half-open.
        for connection in connections:
            connection.sever()
        deadline = time.monotonic() + _JOIN_SECONDS
        threads = [self._accept_thread] if self._accept_thread.ident else []
        threads += [t for c in connections for t in c.threads]
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        self._listener.close()
