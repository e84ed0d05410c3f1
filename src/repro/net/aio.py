"""Asyncio event-loop core of the ChronicleDB wire server.

One background thread runs an asyncio loop for *all* connections of a
server; request handlers (which block on storage and replication) run in
a shared thread pool.  Per connection the loop reads binary frames
(:mod:`repro.net.frames`; a header that fails validation — e.g. a peer
that opens with anything but ``frames.MAGIC`` — gets one typed
``OP_ERR`` and the connection closes) and dispatches them without
waiting for earlier requests to finish (pipelining).  Ordering rule:
requests on one connection execute in receipt order (a sequential chain
through the executor) **except** read-only "independent" ops (ping,
health, stats, ...), which bypass the chain and may complete out of
order — responses carry the request's correlation id so clients match
them.

The server facade (:class:`repro.net.server.ChronicleServer`) supplies
the actual request handlers; this module owns only sockets, framing,
ordering, and lifecycle.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.errors import ProtocolError
from repro.net import frames
from repro.obs import OBS

#: ``OP_JSON`` control ops that bypass the per-connection ordering
#: chain.  All are read-only, so reordering them around in-flight writes
#: is harmless — and it is what lets a pipelined client see a ping
#: overtake a large append still being applied.
INDEPENDENT_OPS = frozenset(
    {"ping", "health", "stats", "list_streams", "schema"}
)

#: StreamReader high-water mark: a connection buffers at most twice
#: this many unparsed request bytes before the transport stops reading
#: and a pipelining client backs up into the kernel socket buffer.
_READ_BUFFER = 16 * 1024 * 1024

#: Binary ops that bypass the per-connection ordering chain.  Credit
#: top-ups must not queue behind large in-flight appends on the same
#: connection, or a subscriber that also writes could starve itself.
_INDEPENDENT_BINARY_OPS = frozenset({frames.OP_SUB_ACK})

_M_FRAMES_IN = OBS.counter("net.frames_in")
_M_BYTES_IN = OBS.histogram("net.frame_bytes_in", smallest=1.0)
_M_BYTES_OUT = OBS.histogram("net.frame_bytes_out", smallest=1.0)
_M_HANDLE_S = OBS.histogram("net.frame_handle_seconds")
_M_DEPTH = OBS.gauge("net.pipeline_depth")


class PushChannel:
    """Thread-safe push side of one server connection.

    Handlers that register long-lived state against a connection (the
    subscription hub) hold one of these: ``send`` schedules a frame on
    the connection's write lock from any thread, ``on_close`` registers
    cleanup for when the peer disconnects, and ``close`` severs the
    connection.  Pushed frames use ``corr_id`` 0 — they answer no
    request.
    """

    def __init__(self, core: "AioServerCore", writer, write_lock):
        self._core = core
        self._writer = writer
        self._write_lock = write_lock
        self._callbacks: list = []
        self._closed = False
        self._lock = threading.Lock()

    @property
    def closed(self) -> bool:
        return self._closed

    def send(self, op: int, payload: bytes, corr_id: int = 0):
        """Schedule a frame write; returns a concurrent Future or ``None``
        if the channel (or server loop) is already closed."""
        if self._closed or not self._core._thread.is_alive():
            return None
        try:
            return asyncio.run_coroutine_threadsafe(
                self._core._send_frame(
                    self._writer, self._write_lock, op, corr_id, payload
                ),
                self._core._loop,
            )
        except RuntimeError:  # loop shut down under us
            return None

    def on_close(self, callback) -> None:
        """Run ``callback()`` once when the connection goes away.  Fires
        immediately if it already has."""
        fire = False
        with self._lock:
            if self._closed:
                fire = True
            else:
                self._callbacks.append(callback)
        if fire:
            callback()

    def close(self) -> None:
        """Abort the connection from any thread (slow-consumer policy)."""

        def _abort():
            transport = self._writer.transport
            if transport is not None:
                transport.abort()

        if self._core._thread.is_alive():
            try:
                self._core._loop.call_soon_threadsafe(_abort)
            except RuntimeError:
                pass
        self._mark_closed()

    def _mark_closed(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            try:
                callback()
            except Exception:
                pass


class AioServerCore:
    """Owns the loop thread, listener, connections, and dispatch."""

    def __init__(self, handler, host: str, port: int, max_workers: int = 8):
        """``handler`` is the server facade; it must provide
        ``handle_json_framed(request)`` and
        ``handle_binary(op, payload, channel)``, each returning
        ``(response_op, payload_bytes)``,
        and may provide ``frame_tap(op, payload)`` for tests."""
        self.handler = handler
        self._loop = asyncio.new_event_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="chronicle-worker"
        )
        self._writers: set[asyncio.StreamWriter] = set()
        self._writers_lock = threading.Lock()
        self._in_flight = 0
        self._server: asyncio.AbstractServer | None = None
        self._stopped = False
        # Bind synchronously so host/port are known before start().
        async def _bind():
            return await asyncio.start_server(
                self._serve_connection, host, port, limit=_READ_BUFFER
            )

        self._server = self._loop.run_until_complete(_bind())
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        self._thread = threading.Thread(
            target=self._loop.run_forever, daemon=True, name="chronicle-aio"
        )

    def start(self) -> None:
        self._thread.start()

    @property
    def live_connections(self) -> int:
        with self._writers_lock:
            return len(self._writers)

    # ---------------------------------------------------------- connection

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        with self._writers_lock:
            self._writers.add(writer)
        write_lock = asyncio.Lock()
        channel = PushChannel(self, writer, write_lock)
        chain: asyncio.Task | None = None
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                done = await self._read_frame(
                    reader, writer, write_lock, chain, tasks, channel
                )
                if done is None:
                    break
                chain = done if done is not False else chain
        finally:
            # Requests already received (e.g. before a half-close EOF)
            # still get their responses: drain in-flight work rather
            # than cancelling it.
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            with self._writers_lock:
                self._writers.discard(writer)
            channel._mark_closed()
            try:
                writer.close()
            except Exception:
                pass

    async def _read_frame(self, reader, writer, write_lock, chain, tasks, channel):
        """Read one binary frame and dispatch it.  Returns the new chain
        tail task, ``False`` to keep the current chain, or ``None`` to
        close the connection."""
        try:
            header = await reader.readexactly(frames.HEADER_SIZE)
        except (asyncio.IncompleteReadError, OSError):
            return None
        try:
            op, corr_id, payload_len = frames.decode_header(header)
        except ProtocolError as error:
            await self._send_frame(
                writer,
                write_lock,
                frames.OP_ERR,
                0,
                frames.encode_json_payload({"error": str(error)}),
            )
            return None
        try:
            payload = await reader.readexactly(payload_len)
        except (asyncio.IncompleteReadError, OSError):
            return None
        if OBS.enabled:
            _M_FRAMES_IN.inc()
            _M_BYTES_IN.observe(frames.HEADER_SIZE + payload_len)
        independent = False
        if op == frames.OP_JSON:
            try:
                request = frames.decode_json_payload(payload)
                if not isinstance(request, dict):
                    raise ProtocolError(
                        "bad JSON frame payload: a request is an object, "
                        f"not {type(request).__name__}"
                    )
            except ProtocolError as error:
                await self._send_frame(
                    writer,
                    write_lock,
                    frames.OP_ERR,
                    corr_id,
                    frames.encode_json_payload({"error": str(error)}),
                )
                return False
            independent = request.get("op") in INDEPENDENT_OPS
            work = lambda: self.handler.handle_json_framed(request)  # noqa: E731
        else:
            independent = op in _INDEPENDENT_BINARY_OPS
            work = lambda: self.handler.handle_binary(op, payload, channel)  # noqa: E731

        async def run(previous: asyncio.Task | None):
            if previous is not None:
                try:
                    await previous
                except Exception:
                    pass
            self._in_flight += 1
            if OBS.enabled:
                _M_DEPTH.set(self._in_flight)
            started = self._loop.time()
            try:
                response_op, response_payload = await self._loop.run_in_executor(
                    self._executor, work
                )
            finally:
                self._in_flight -= 1
            if OBS.enabled:
                _M_HANDLE_S.observe(self._loop.time() - started)
            await self._send_frame(
                writer, write_lock, response_op, corr_id, response_payload
            )

        task = asyncio.ensure_future(run(None if independent else chain))
        tasks.add(task)
        task.add_done_callback(tasks.discard)
        return False if independent else task

    async def _send_frame(self, writer, write_lock, op, corr_id, payload):
        async with write_lock:
            try:
                data = frames.encode_frame(op, corr_id, payload)
                writer.write(data)
                await writer.drain()
                if OBS.enabled:
                    _M_BYTES_OUT.observe(len(data))
            except (ConnectionError, OSError):
                pass

    # ------------------------------------------------------------ lifecycle

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True

        async def _shutdown():
            if self._server is not None:
                self._server.close()
            # Sever live connections so peers observe the stop
            # immediately — failover detection depends on a dead primary
            # dropping its connections, not leaving them half-open.
            with self._writers_lock:
                writers = list(self._writers)
            for writer in writers:
                transport = writer.transport
                if transport is not None:
                    transport.abort()
            self._loop.stop()

        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(
                lambda: asyncio.ensure_future(_shutdown())
            )
            self._thread.join(timeout=5)
        if not self._loop.is_running():
            # Drain cancelled callbacks, then close the loop.
            try:
                self._loop.run_until_complete(asyncio.sleep(0))
            except Exception:
                pass
            self._loop.close()
        self._executor.shutdown(wait=False)
