"""``RetryPolicy.run``: the one bounded-backoff loop, and its two users.

The disk proxy charges its waits to the simulated clock, the client
pool sleeps wall time; both go through the same loop, so its shape is
pinned here once.
"""

import socket
import threading
import time

import pytest

from repro.cluster.placement import Endpoint
from repro.cluster.pool import ClientPool
from repro.core.devices import RetryingDisk, RetryPolicy
from repro.errors import DiskCrashed
from repro.net.client import ConnectionClosed
from repro.simdisk import INSTANT, FaultPlan, SimulatedDisk


class Flaky:
    """Fails with ``ValueError(k)`` on call *k* until *failures* calls
    have failed, then returns ``"ok"``."""

    def __init__(self, failures: int):
        self.failures = failures
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        if self.calls <= self.failures:
            raise ValueError(self.calls - 1)
        return ("ok", *args)


def _is_value_error(error):
    return isinstance(error, ValueError)


def _no_sleep(monkeypatch):
    def forbidden(seconds):
        raise AssertionError(f"time.sleep({seconds}) called")

    monkeypatch.setattr(time, "sleep", forbidden)


def test_waits_grow_geometrically_through_the_given_wait_only(monkeypatch):
    _no_sleep(monkeypatch)
    policy = RetryPolicy(max_attempts=4, backoff_seconds=0.5, multiplier=3.0)
    waits = []
    operation = Flaky(failures=3)
    result = policy.run(operation, _is_value_error, waits.append, 7)
    assert result == ("ok", 7)
    assert operation.calls == 4
    assert waits == [0.5, 1.5, 4.5]


def test_a_non_retryable_error_propagates_after_one_attempt():
    waits = []

    def operation():
        raise KeyError("deterministic")

    with pytest.raises(KeyError):
        RetryPolicy().run(operation, _is_value_error, waits.append)
    assert waits == []


def test_an_exhausted_budget_raises_the_last_error():
    policy = RetryPolicy(max_attempts=3, backoff_seconds=1.0, multiplier=2.0)
    waits = []
    operation = Flaky(failures=10)
    with pytest.raises(ValueError) as excinfo:
        policy.run(operation, _is_value_error, waits.append)
    assert excinfo.value.args == (2,)  # the third attempt's error
    assert operation.calls == 3
    assert waits == [1.0, 2.0]


def test_a_single_attempt_never_waits():
    waits = []
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=1).run(
            Flaky(failures=1), _is_value_error, waits.append
        )
    assert waits == []


def test_retrying_disk_charges_the_clock_and_never_sleeps(monkeypatch):
    _no_sleep(monkeypatch)
    disk = SimulatedDisk(
        INSTANT, label="d", fault_plan=FaultPlan(transient_writes={0: 2})
    )
    policy = RetryPolicy(max_attempts=4, backoff_seconds=0.25, multiplier=2.0)
    retrying = RetryingDisk(disk, policy)
    before = disk.clock.now
    retrying.write(0, b"abcd")
    assert retrying.retries == 2
    assert disk.clock.now - before == pytest.approx(0.25 + 0.5)
    assert retrying.read(0, 4) == b"abcd"


def test_retrying_disk_does_not_retry_a_crash(monkeypatch):
    _no_sleep(monkeypatch)
    disk = SimulatedDisk(
        INSTANT, label="d", fault_plan=FaultPlan(crash_at_write=0)
    )
    retrying = RetryingDisk(disk, RetryPolicy())
    with pytest.raises(DiskCrashed):
        retrying.write(0, b"abcd")
    assert retrying.retries == 0


def _hang_up_listener(connections: int):
    """Accepts *connections* connections and closes each at once: every
    client the pool builds connects, then fails its first request with
    EOF."""
    sink = socket.socket()
    sink.bind(("127.0.0.1", 0))
    sink.listen(connections)
    accepted = []

    def serve():
        for _ in range(connections):
            conn, _ = sink.accept()
            accepted.append(conn)
            conn.close()

    threading.Thread(target=serve, daemon=True).start()
    return sink, accepted


def test_pool_run_against_a_dead_endpoint_leaves_no_cached_client():
    sink, accepted = _hang_up_listener(3)
    endpoint = Endpoint("127.0.0.1", sink.getsockname()[1])
    policy = RetryPolicy(max_attempts=3, backoff_seconds=0.0)
    try:
        with ClientPool(retry=policy, timeout=5.0) as pool:
            with pytest.raises((ConnectionClosed, OSError)):
                pool.run(endpoint, lambda c: c.ping())
            assert pool.retries == 2
            assert len(accepted) == 3  # a fresh connection per attempt
            # Invalidated after every failure, the last one included.
            assert endpoint not in pool._clients
    finally:
        sink.close()
