"""A thread-safe pool of client connections, one per endpoint — and
the client stack's one retry and one failover step.

One cached :class:`~repro.net.client.BinaryChronicleClient` per
endpoint, created on demand.  ``run`` retries connection-level failures
through :meth:`repro.core.devices.RetryPolicy.run`, the engine's one
bounded-backoff loop, waiting wall time; application-level errors from
the server propagate immediately — they are deterministic and retrying
cannot help.  ``fail_over`` is the one failover step the router
(:class:`~repro.cluster.client.ClusterClient`) and the routed subscriber
(:class:`~repro.sub.cluster.ClusterSubscriber`) share.

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
        return self.retry.run(
            self._attempt, is_connection_error, self._backoff,
            endpoint, operation,
        )

    def _attempt(self, endpoint: Endpoint, operation):
        try:
            return operation(self.client(endpoint))
        except TRANSPORT_ERRORS as error:
            if is_connection_error(error):
                self.invalidate(endpoint)
            raise

    def _backoff(self, delay: float) -> None:
        self.retries += 1
        time.sleep(delay)

    def fail_over(self, endpoint: Endpoint, shard_id: int, cluster) -> bool:
        """The failover step after a connection failure on *endpoint*,
        shard *shard_id*'s primary as the caller last saw it: drop the
        cached client and, with an in-process *cluster* attached, make
        sure the shard has a live primary (promoting a replica if the
        old one is dead).  Returns whether a cluster was there to act."""
        self.invalidate(endpoint)
        if cluster is None:
            return False
        cluster.ensure_primary(shard_id)
        return True

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
