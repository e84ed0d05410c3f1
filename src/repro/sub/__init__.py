"""Live subscriptions and cluster-scale continuous queries.

``repro.sub`` turns the event store into a push platform:

* :mod:`repro.sub.hub` — the server-side subscription registry: each
  subscription a cursor over the log, credit-based backpressure, slow-
  consumer policies, and pushed columnar batches over the binary wire
  protocol.
* :mod:`repro.sub.client` — the client-side subscription handle fed by
  :class:`repro.net.client.BinaryChronicleClient`'s reader loop.
* :mod:`repro.sub.cluster` — a routed subscriber that follows primary
  failover and shard-map epoch swaps transparently, resuming from its
  cursor with no gap and no duplicate.
* :mod:`repro.sub.runner` — EPC continuous queries with checkpointed
  operator state: exactly-once output resumption via an idempotent
  indexed sink.
* :mod:`repro.sub.checkpoint` — small CRC-framed atomic state files
  (also used for cluster route-state persistence).
"""

from repro.sub.client import SubscriptionHandle
from repro.sub.cluster import ClusterSubscriber
from repro.sub.hub import SubscriptionHub
from repro.sub.runner import CheckpointedQueryRunner

__all__ = [
    "SubscriptionHandle",
    "ClusterSubscriber",
    "SubscriptionHub",
    "CheckpointedQueryRunner",
]
