"""Routed subscriptions that survive failover and live shard splits.

A :class:`ClusterSubscriber` follows one stream across a sharded
deployment.  It resolves the shard owning the subscriber's cursor
through the shared :class:`~repro.cluster.placement.ShardMap`, opens a
binary subscription against that shard's primary, and turns the typed
subscription endings into routing decisions:

* ``ownership_changed`` — an epoch swap touched the stream (a split
  installed a new assignment).  Re-resolve the cursor's owner and
  resubscribe; the cursor makes the continuation exactly-once.
* ``ownership_boundary`` — the node drained every event it owns and
  the live tail belongs elsewhere.  Advance to the owner of the next
  assignment segment after the cursor and resubscribe there.
* ``server_closing`` / transport errors — the node went away.  The
  subscriber takes the router's failover step
  (:meth:`~repro.cluster.pool.ClientPool.fail_over`): the connection is
  invalidated and, with a :class:`~repro.cluster.cluster.Cluster`
  attached, ``ensure_primary`` promotes a replica; then the
  subscription resumes from the cursor on the new primary.

Every hop that delivers nothing counts against one stall budget
(``_MAX_STALLS``), checked in one place; a batch resets it.

Windowed striping (:class:`TimeWindowPlacement`) interleaves one
stream's *live* tail across every shard at window granularity; a single
totally-ordered push feed would need a cross-shard merge barrier, so
such placements are rejected — subscribe per shard instead.
"""

from __future__ import annotations

import threading
import time

from repro.cluster.placement import TimeWindowPlacement
from repro.cluster.pool import ClientPool, TRANSPORT_ERRORS
from repro.errors import ClusterError, SubscriptionClosed
from repro.sub.client import BatchConsumer

_HUGE = 2**62
#: Consecutive resubscribe attempts that deliver nothing before giving up.
_MAX_STALLS = 25
#: Endings that mean the node went away: fail over, then resubscribe.
#: "error" covers a dying node racing its own shutdown — the push fails
#: server-side a moment before the socket drops.
_FAILOVER_ENDS = ("server_closing", "transport", "error")


class ClusterSubscriber(BatchConsumer):
    """A resumable push subscription routed through a shard map."""

    def __init__(
        self,
        stream: str,
        cluster=None,
        shard_map=None,
        pool: ClientPool | None = None,
        from_t: int | None = None,
        cursor: tuple[int, int] | None = None,
        credits: int = 4,
        batch: int = 512,
        policy: str = "spill",
        queue_max: int | None = None,
    ):
        if cluster is not None and shard_map is None:
            shard_map = cluster.shard_map
        if shard_map is None:
            raise ClusterError(
                "ClusterSubscriber needs a cluster or a shard_map"
            )
        if isinstance(shard_map.policy, TimeWindowPlacement):
            raise ClusterError(
                "windowed striping interleaves one stream's live tail "
                "across shards; subscribe to each shard directly"
            )
        self.stream = stream
        self.cluster = cluster
        self.shard_map = shard_map
        self._own_pool = pool is None
        self.pool = pool if pool is not None else ClientPool()
        self.cursor: tuple[int, int] | None = (
            tuple(cursor) if cursor is not None
            else ((int(from_t), 0) if from_t is not None else None)
        )
        self.credits = credits
        self.batch = batch
        self.policy = policy
        self.queue_max = queue_max
        #: Counters a test (or an operator) can read: how often the
        #: subscription hopped, and why.
        self.reroutes = 0
        self.failovers = 0
        self._advance_segment = False
        self._handle = None
        self._closed = False
        self._lock = threading.Lock()

    # ------------------------------------------------------------ resolution

    def _resolve_t(self) -> int:
        """The timestamp whose owner to subscribe to next."""
        if self.cursor is None:
            return _HUGE - 1  # tail owner
        t = self.cursor[0]
        if self._advance_segment:
            # The previous owner drained its range; the next events live
            # in the segment after the first assignment cut past the
            # cursor (or on the tail owner when no cut remains).
            cuts = [c for c in self.shard_map._assignment_cuts(self.stream)
                    if c > t]
            t = cuts[0] if cuts else _HUGE - 1
        return t

    def _resolve(self):
        t = self._resolve_t()
        self._advance_segment = False
        spec = self.shard_map.shard_for(self.stream, t)
        return spec, spec.primary

    def _recover(self, spec, endpoint) -> None:
        """Connection-level failure: the router's failover step, or a
        short pause when no orchestrator is attached."""
        self.failovers += 1
        if not self.pool.fail_over(endpoint, spec.shard_id, self.cluster):
            time.sleep(0.05)

    # ----------------------------------------------------------- consumption

    def batches(self, timeout: float | None = None):
        """Yield event batches, transparently hopping shards.

        :attr:`cursor` covers the yielded batch while the caller holds
        it — a checkpointing consumer persists it *after* processing the
        batch and a crash replays from exactly the first unprocessed
        event, on whichever shard owns it by then.
        """
        stalls = 0
        while not self._closed:
            spec, endpoint = self._resolve()
            handle = None
            try:
                opened = self.pool.client(endpoint).subscribe(
                    self.stream,
                    cursor=self.cursor,
                    credits=self.credits,
                    batch=self.batch,
                    policy=self.policy,
                    queue_max=self.queue_max,
                )
                with self._lock:
                    if self._closed:
                        opened.close()
                        return
                    self._handle = handle = opened
                for events in handle.batches(timeout=timeout):
                    if events:
                        stalls = 0
                        self.cursor = handle.cursor
                        yield events
                continue
            except SubscriptionClosed as end:
                if end.reason == "unsubscribed" or self._closed:
                    return
                cause, reason = end, end.reason
            except TRANSPORT_ERRORS as error:
                cause, reason = error, "transport"
            except GeneratorExit:
                # The consumer stopped early (``take``, ``break``): end
                # the subscription, or a shared pool's connection keeps
                # it live on the node.
                if handle is not None:
                    handle.close()
                raise
            finally:
                if handle is not None:
                    self.cursor = handle.cursor
                with self._lock:
                    self._handle = None
            stalls += 1
            if stalls > _MAX_STALLS:
                raise ClusterError(
                    f"subscription to {self.stream!r} on shard "
                    f"{spec.shard_id} at {endpoint} made no progress "
                    f"over {stalls} hops (last end: {reason})"
                ) from cause
            if reason == "ownership_boundary":
                self._advance_segment = True
                self.reroutes += 1
            elif reason == "ownership_changed":
                self.reroutes += 1
            elif reason in _FAILOVER_ENDS:
                self._recover(spec, endpoint)
            else:
                raise cause

    def close(self) -> None:
        with self._lock:
            self._closed = True
            handle = self._handle
            self._handle = None
        if handle is not None:
            try:
                handle.close()
            except Exception:
                pass
        if self._own_pool:
            self.pool.close()
