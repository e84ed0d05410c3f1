"""A thread-safe pool of client connections, one per endpoint.

One cached :class:`~repro.net.client.BinaryChronicleClient` per
endpoint, created on demand.  ``run`` retries connection-level failures
with the same bounded exponential backoff shape as
:class:`repro.core.devices.RetryPolicy` (the device-retry analogue at
the network layer); application-level errors from the server propagate
immediately — they are deterministic and retrying cannot help.

A :class:`~repro.errors.ProtocolError` counts as a connection failure:
it means the byte stream desynchronized (e.g. a reconnect happened
mid-frame, or a peer sent garbage), and the only safe recovery is to
drop the connection and build a fresh client — which is exactly what
``invalidate`` + the next ``client()`` call do, discarding any half-read
buffer state with the dead socket.
"""

from __future__ import annotations

import threading
import time

from repro.cluster.placement import Endpoint
from repro.core.devices import RetryPolicy
from repro.errors import ProtocolError
from repro.net.client import (
    BinaryChronicleClient,
    ConnectionClosed,
    RemoteError,
)

#: The exception classes a transport failure can surface as.  Retry
#: paths catch exactly these (then consult :func:`is_connection_error`)
#: so application errors — ``QueryError``, schema mismatches — surface
#: immediately instead of being retried until timeout.
TRANSPORT_ERRORS = (OSError, ProtocolError, RemoteError)


def is_connection_error(error: Exception) -> bool:
    """A failure of the *connection*, not of the request."""
    # OSError covers resets and timeouts (socket.timeout and the builtin
    # TimeoutError are OSError subclasses); ProtocolError means a
    # desynchronized stream; ConnectionClosed is the peer's EOF — all
    # are cured only by a fresh connection.
    return isinstance(error, (OSError, ProtocolError, ConnectionClosed))


class ClientPool:
    def __init__(
        self,
        retry: RetryPolicy | None = None,
        timeout: float = 30.0,
    ):
        self.retry = retry if retry is not None else RetryPolicy()
        self.timeout = timeout
        self.retries = 0
        self._clients: dict[Endpoint, BinaryChronicleClient] = {}
        self._lock = threading.Lock()

    def client(self, endpoint: Endpoint) -> BinaryChronicleClient:
        with self._lock:
            client = self._clients.get(endpoint)
            if client is None:
                client = BinaryChronicleClient(
                    endpoint.host, endpoint.port, timeout=self.timeout
                )
                self._clients[endpoint] = client
            return client

    def invalidate(self, endpoint: Endpoint) -> None:
        with self._lock:
            client = self._clients.pop(endpoint, None)
        if client is not None:
            client.close()

    def run(self, endpoint: Endpoint, operation):
        """``operation(client)`` with reconnect-and-retry on connection
        failures; the last connection error propagates when the retry
        budget is exhausted."""
        delay = self.retry.backoff_seconds
        last_error: Exception | None = None
        for attempt in range(self.retry.max_attempts):
            if attempt:
                self.retries += 1
                time.sleep(delay)
                delay *= self.retry.multiplier
            try:
                return operation(self.client(endpoint))
            except TRANSPORT_ERRORS as error:
                if not is_connection_error(error):
                    raise
                last_error = error
                self.invalidate(endpoint)
        raise last_error

    def close(self) -> None:
        with self._lock:
            clients = list(self._clients.values())
            self._clients.clear()
        for client in clients:
            client.close()

    def __enter__(self) -> "ClientPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
