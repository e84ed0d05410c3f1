"""In-process cluster orchestration: membership, health, failover.

A :class:`Cluster` owns ``num_shards`` replica groups of
``1 + replication_factor`` :class:`~repro.cluster.node.ClusterNode`\\ s
each, wires a :class:`~repro.cluster.replication.Replicator` onto every
primary, and publishes a shared :class:`~repro.cluster.placement.ShardMap`
that routers read.  All nodes run in this process (real sockets, real
wire protocol), which keeps failover tests deterministic: a test kills a
primary at an exact fault point and drives the monitor by hand.

Failover sequence (``fail_over``):

1. pick the live replica with the most acknowledged events (``health``);
2. promote it — :meth:`ClusterNode.promote_for_writes` runs the
   instant-recovery open before the node takes writes;
3. reconcile: pull the full event log from every surviving sibling and
   apply whatever the promotee is missing, deduplicated as a
   ``(t, values)`` multiset — a majority quorum guarantees every
   *acknowledged* batch lives on some majority, and the union of the
   survivors covers it;
4. swap the shard map's primary and install a fresh replicator.
"""

from __future__ import annotations

import os
import threading

from repro.cluster.node import ClusterNode
from repro.cluster.placement import (
    Endpoint,
    HashPlacement,
    PlacementPolicy,
    RangeAssignment,
    ShardMap,
    ShardSpec,
)
from repro.cluster.pool import ClientPool
from repro.cluster.replication import Replicator, reconcile_stream
from repro.core.config import ChronicleConfig
from repro.core.devices import RetryPolicy
from repro.errors import ChronicleError, ClusterError
from repro.obs import tally


class Cluster:
    def __init__(
        self,
        num_shards: int = 1,
        replication_factor: int = 0,
        base_dir: str | None = None,
        policy: PlacementPolicy | None = None,
        config: ChronicleConfig | None = None,
        clock_factory=None,
        retry: RetryPolicy | None = None,
    ):
        if num_shards < 1:
            raise ClusterError("num_shards must be >= 1")
        if replication_factor < 0:
            raise ClusterError("replication_factor must be >= 0")
        self.policy = policy if policy is not None else HashPlacement()
        self.config = config
        self.base_dir = base_dir
        self.replication_factor = replication_factor
        self.clock_factory = clock_factory
        self.pool = ClientPool(retry=retry)
        self.nodes: dict[Endpoint, ClusterNode] = {}
        self.shard_map: ShardMap | None = None
        self.counters = {
            "failovers": 0,
            "reconciled_events": 0,
            "splits": 0,
            "migrated_events": 0,
        }
        self.migrations: list[dict] = []
        self._members: list[list[ClusterNode]] = []
        for shard_id in range(num_shards):
            group = []
            for member in range(1 + replication_factor):
                name = f"s{shard_id}n{member}"
                directory = (
                    os.path.join(base_dir, name) if base_dir else None
                )
                clock = clock_factory() if clock_factory else None
                group.append(
                    ClusterNode(name, directory, config, clock)
                )
            self._members.append(group)

    # ------------------------------------------------------------ lifecycle

    def start(self) -> "Cluster":
        shards = []
        for shard_id, group in enumerate(self._members):
            for node in group:
                node.start()
                self.nodes[node.endpoint] = node
            shards.append(
                ShardSpec(
                    shard_id,
                    primary=group[0].endpoint,
                    replicas=tuple(n.endpoint for n in group[1:]),
                )
            )
        self.shard_map = ShardMap(shards, self.policy)
        self._reload_route_state()
        for spec in shards:
            self._install_replicator(spec)
        self.push_map()
        return self

    def _reload_route_state(self) -> None:
        """Re-adopt persisted assignments and epoch after a restart.

        Endpoints are re-derived from the live topology (ports change
        across restarts); what must survive are the *ownership* facts —
        range assignments installed by splits, the frozen base-shard
        modulus, and the epoch watermark that fences stale routers.
        Assignments naming shards beyond the current topology are
        dropped (a shrunk restart falls back to computed placement)."""
        if not self.base_dir:
            return
        from repro.cluster.routestate import load_route_state

        persisted = load_route_state(self.base_dir)
        if persisted is None:
            return
        assignments = tuple(
            RangeAssignment.from_wire(a)
            for a in persisted.get("assignments", ())
        )
        num = len(self.shard_map.shards)
        if any(
            a.shard_id >= num or a.source >= num for a in assignments
        ):
            return
        self.shard_map.base_shards = int(persisted["base_shards"])
        self.shard_map.assignments = assignments
        self.shard_map.version = max(
            self.shard_map.version, int(persisted["epoch"])
        )

    def stop(self) -> None:
        self.pool.close()
        for node in self.nodes.values():
            node.stop()

    def __enter__(self) -> "Cluster":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------- plumbing

    def node_at(self, endpoint: Endpoint) -> ClusterNode:
        return self.nodes[endpoint]

    def _install_replicator(self, spec: ShardSpec) -> None:
        primary = self.nodes[spec.primary]
        primary.install_replicator(
            Replicator(spec.replicas, self.pool)
            if spec.replicas
            else None
        )

    def client(self, retry: RetryPolicy | None = None):
        from repro.cluster.client import ClusterClient

        return ClusterClient(
            self.shard_map,
            pool=ClientPool(retry=retry),
            cluster=self,
        )

    # ----------------------------------------------------------- elasticity

    def push_map(self) -> None:
        """Best-effort install of the current shard map on every node.

        Custom (non-wire-serializable) policies skip the push — such
        deployments route in-process only and never enforce epochs.  A
        node that is down simply misses this round; failover and split
        fan-out re-push.
        """
        try:
            wire = self.shard_map.to_wire()
        except ClusterError:
            return
        self.save_route_state(wire)
        for endpoint in list(self.nodes):
            try:
                self.pool.run(endpoint, lambda c: c.map_update(wire))
            except (ClusterError, ChronicleError, OSError):
                continue

    def save_route_state(self, wire: dict | None = None) -> None:
        """Persist the current (or given) wire map so a restart
        re-adopts ownership facts; no-op for in-memory deployments."""
        if not self.base_dir:
            return
        from repro.cluster.routestate import save_route_state

        if wire is None:
            try:
                wire = self.shard_map.to_wire()
            except ClusterError:
                return
        save_route_state(self.base_dir, wire)

    def add_shard(self) -> ShardSpec:
        """Provision and start one more replica group (same replication
        factor), clone the stream namespace onto it, and register it in
        the shard map.  The new shard owns nothing until a split
        installs an assignment, so routing is unchanged."""
        shard_id = len(self._members)
        group = []
        for member in range(1 + self.replication_factor):
            name = f"s{shard_id}n{member}"
            directory = (
                os.path.join(self.base_dir, name) if self.base_dir else None
            )
            clock = self.clock_factory() if self.clock_factory else None
            group.append(ClusterNode(name, directory, self.config, clock))
        self._members.append(group)
        for node in group:
            node.start()
            self.nodes[node.endpoint] = node
        spec = ShardSpec(
            shard_id,
            primary=group[0].endpoint,
            replicas=tuple(n.endpoint for n in group[1:]),
        )
        self.shard_map.add_shard(spec)
        self._install_replicator(spec)
        self._clone_namespace(spec)
        return spec

    def _clone_namespace(self, spec: ShardSpec) -> None:
        """Every stream exists on every shard (uniform namespace): the
        new primary creates each, its replicator fanning creation out
        to the new replicas."""
        from repro.events.schema import EventSchema

        template = self.shard_map.shards[0]
        if template.shard_id == spec.shard_id:
            return
        for stream in self.pool.run(
            template.primary, lambda c: c.list_streams()
        ):
            schema = EventSchema.from_dict(
                self.pool.run(
                    template.primary,
                    lambda c: c.call({"op": "schema", "stream": stream}),
                )
            )
            self.pool.run(
                spec.primary, lambda c: c.create_stream(stream, schema)
            )

    def split_shard(
        self,
        source_id: int,
        t_split: int | None = None,
        streams=None,
        target_id: int | None = None,
        chunk: int = 2048,
        chunk_delay_s: float = 0.0,
        crash_at_op: int | None = None,
    ) -> dict:
        """Live split: move ``t >= t_split`` of every stream (windowed
        deployments) or whole ``streams`` (hashed deployments) off
        shard *source_id* onto a fresh shard — copying while the source
        keeps serving, then swapping the map epoch.  See
        :mod:`repro.cluster.migration` for the protocol and
        ``crash_at_op``/resume semantics."""
        from repro.cluster.migration import run_split

        return run_split(
            self,
            source_id,
            t_split=t_split,
            streams=streams,
            target_id=target_id,
            chunk=chunk,
            chunk_delay_s=chunk_delay_s,
            crash_at_op=crash_at_op,
        )

    def resume_splits(self) -> list[dict]:
        """Re-run every failed migration to completion (idempotent:
        copied chunks are never re-shipped, map installs are
        epoch-gated).  Returns the completed records."""
        from repro.cluster.migration import run_split

        resumed = []
        for record in self.migrations:
            if record["status"] != "failed":
                continue
            run_split(
                self,
                record["source"],
                t_split=record["t_split"],
                streams=record["streams"],
                target_id=record["target"],
                record=record,
            )
            resumed.append(record)
        return resumed

    def rebalancer(self, **kwargs):
        from repro.cluster.rebalance import Rebalancer

        return Rebalancer(self, **kwargs)

    # --------------------------------------------------------------- health

    def is_alive(self, endpoint: Endpoint) -> bool:
        try:
            return self.pool.run(endpoint, lambda c: c.ping())
        except Exception:
            return False

    def poll(self) -> list[Endpoint]:
        """One monitor sweep: fail over every shard whose primary is
        dead.  Returns the newly promoted primaries."""
        promoted = []
        for spec in self.shard_map.shards:
            if not self.is_alive(spec.primary):
                promoted.append(self.fail_over(spec.shard_id))
        return promoted

    def ensure_primary(self, shard_id: int) -> Endpoint:
        """The shard's primary, failing over first if it is dead."""
        spec = self.shard_map.shards[shard_id]
        if self.is_alive(spec.primary):
            return spec.primary
        return self.fail_over(shard_id)

    # ------------------------------------------------------------- failover

    def fail_over(self, shard_id: int) -> Endpoint:
        spec = self.shard_map.shards[shard_id]
        survivors = [r for r in spec.replicas if self.is_alive(r)]
        if not survivors:
            raise ClusterError(
                f"shard {shard_id}: primary {spec.primary} is dead and no "
                "replica is reachable"
            )
        chosen = self._most_caught_up(survivors)
        promotee = self.nodes[chosen]
        promotee.promote_for_writes()
        siblings = [r for r in survivors if r != chosen]
        reconciled = 0
        for stream in self._shard_streams(survivors):
            reconciled += reconcile_stream(
                self.pool, chosen, siblings, stream
            )
        self.pool.invalidate(spec.primary)
        self.shard_map.promote(shard_id, chosen)
        self._install_replicator(spec)
        # Promotion bumped the epoch; re-push so nodes fence writers
        # still routing to the old primary's shard layout (and so a
        # recovered node regains its in-memory route state).
        self.push_map()
        tally(self.counters, "cluster", failovers=1,
              reconciled_events=reconciled)
        return chosen

    def _most_caught_up(self, candidates: list[Endpoint]) -> Endpoint:
        """The candidate with the most acknowledged events; endpoint
        order breaks ties, keeping elections deterministic."""
        def appended(endpoint: Endpoint) -> int:
            report = self.pool.run(endpoint, lambda c: c.health())
            return sum(
                s["appended"] for s in report["streams"].values()
            )

        return max(sorted(candidates), key=appended)

    def _shard_streams(self, endpoints: list[Endpoint]) -> list[str]:
        streams: set[str] = set()
        for endpoint in endpoints:
            streams.update(
                self.pool.run(endpoint, lambda c: c.list_streams())
            )
        return sorted(streams)

    # ---------------------------------------------------------------- stats

    def stats(self) -> dict:
        shards = {}
        for spec in self.shard_map.shards:
            primary = self.nodes[spec.primary]
            replicator = (
                primary.server.replicator if primary.server else None
            )
            shards[spec.shard_id] = {
                "primary": str(spec.primary),
                "replicas": [str(r) for r in spec.replicas],
                "replication": (
                    replicator.stats() if replicator is not None else None
                ),
            }
        return {
            "version": self.shard_map.version,
            "shards": shards,
            "counters": dict(self.counters),
            "pool_retries": self.pool.retries,
        }


class ClusterMonitor:
    """Pings every shard primary on an interval; dead primaries trigger
    failover.  ``poll_once`` is the deterministic entry point tests use;
    ``start``/``stop`` run the same sweep on a background thread."""

    def __init__(self, cluster: Cluster, interval: float = 0.25):
        self.cluster = cluster
        self.interval = interval
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def poll_once(self) -> list[Endpoint]:
        return self.cluster.poll()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.poll_once()
            except ClusterError:
                pass  # unrecoverable shard; keep watching the others

    def start(self) -> "ClusterMonitor":
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, daemon=True, name="cluster-monitor"
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
