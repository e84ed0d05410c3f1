"""The ChronicleDB network server (standalone mode).

Serves one :class:`ChronicleDB` over TCP with a thread pair per
connection (:mod:`repro.net.aio`) speaking one protocol, binary frames
(:mod:`repro.net.frames`): length-prefixed and pipelined via
correlation ids.  Events cross the socket only as columnar batch
payloads — an append (one event or many) is decoded once into
timestamp and attribute arrays and applied through the columnar ingest
lane (:meth:`EventStream.append_columns`), never materializing
per-event objects for in-order traffic; control ops (create, query,
stats, map installs, ...) are JSON dicts inside ``OP_JSON`` frames.

Replication is zero-copy pass-through: a batch payload is
self-describing (stream + schema + columns), so the primary hands its
``replicator`` hook the *received payload bytes* and the replicator
ships those same bytes to every replica.
"""

from __future__ import annotations

import threading

from repro.core.chronicle import ChronicleDB
from repro.errors import ChronicleError, ProtocolError, StaleRouteError
from repro.events.schema import EventSchema
from repro.events.serializer import PaxCodec
from repro.net import frames
from repro.net.aio import ServerCore
from repro.obs import OBS
from repro.query.ast import SelectStar
from repro.query.columnar import read_events
from repro.query.parser import parse as parse_query
from repro.query.planner import execute as execute_query

_STALE_REJECTIONS = OBS.counter("net.stale_route_rejections")


def _stale_payload(error: StaleRouteError) -> dict:
    """The typed error shape a stale-routed client retries from."""
    return {
        "error": str(error),
        "error_kind": "stale_route",
        "epoch": error.epoch,
        "map": error.wire_map,
    }


class _EventRows:
    """A batch on its way to a transport, which encodes it outside the
    stream lock: a ``SELECT *`` answer or a catch-up replay."""

    def __init__(self, stream: str, schema: EventSchema, batch):
        self.stream, self.schema, self.batch = stream, schema, batch

    def batch_payload(self) -> bytes:
        """The ``OP_OK_BATCH`` reply, in the ingest path's batch format."""
        return frames.encode_batch_payload(
            self.stream, frames.schema_bytes_of(self.schema),
            PaxCodec(self.schema), self.batch,
        )


class ChronicleServer:
    """Serves one :class:`ChronicleDB` over TCP (:mod:`repro.net.aio`).

    Locking is two-level: database-level operations (stream creation,
    flush, whole-database stats) hold a global lock, while per-stream
    operations (append, query, catch-up) hold only that stream's lock —
    so scatter-gather reads against one node don't serialize behind
    unrelated appends.  Lock order is always database lock before stream
    lock, never both held across a wait on the other direction.

    ``replicator``, when given, is called as ``replicator(request)``
    after a mutating op (``create_stream``, ``append_batch``) has been
    applied locally; raising inside it fails the client's request.  An
    ``append_batch`` request carries the received batch payload under
    ``"raw"`` so the cluster layer forwards the identical bytes
    (:mod:`repro.cluster.replication`).

    Subscriptions are cursors over the log (:mod:`repro.sub.hub`): the
    two batch-append handlers ring ``hub.notify(stream, count)`` once per
    applied batch, under the stream lock, and that is all the append
    path does for subscribers — the subscriber connection's push thread
    reads what to push from storage under the same lock.

    ``frame_tap``, when given, is called as ``frame_tap(op, payload)``
    for every received binary frame — a test hook used to assert the
    zero-copy replication path ships unmodified bytes.
    """

    def __init__(
        self,
        db: ChronicleDB,
        host: str = "127.0.0.1",
        port: int = 0,
        replicator=None,
        protocol: str = "binary",
        frame_tap=None,
    ):
        # Selects nothing: the frozen benchmarks/e2e launcher passes
        # protocol="binary"; a benchmark follow-up removes the parameter.
        if protocol != "binary":
            raise ProtocolError(f"unknown protocol {protocol!r}")
        self.db = db
        self.replicator = replicator
        self.frame_tap = frame_tap
        # Routing state, installed by ``map_update``: the newest shard
        # map this node has seen, its epoch, and which shard this node
        # serves in it.  ``route_epoch`` gates stale-routed writes;
        # ``_route_map``/``_self_shard`` give the owned time slices
        # reads keep to after a split left dead data behind.
        self.route_epoch: int | None = None
        self._route_map = None
        self._route_wire: dict | None = None
        self._self_shard: int | None = None
        self.stale_rejections = 0
        self._db_lock = threading.Lock()
        # Stream-lock creation has its own guard (not the db lock):
        # eviction looks its victims' locks up from handlers that
        # already hold the db lock (create_stream).
        self._locks_guard = threading.Lock()
        self._stream_locks: dict[str, threading.Lock] = {}
        from repro.sub.hub import SubscriptionHub

        self.hub = SubscriptionHub(
            db, lock_for=self._lock_for, routes=self._routes
        )
        # Multi-tenant eviction must not flush a stream some handler is
        # appending to: give the table the same per-stream locks the
        # handlers hold (eviction skips contended victims).
        if hasattr(db.streams, "lock_for"):
            db.streams.lock_for = self._lock_for
        self._core = ServerCore(self, host, port)
        self.host, self.port = self._core.host, self._core.port
        # A restarted node recovers its route state (epoch fencing and
        # ownership filtering) before serving anything; a missing or
        # corrupt file is the founding state, healed by map_sync.
        if db.directory:
            from repro.cluster.routestate import load_route_state

            wire = load_route_state(db.directory)
            if wire is not None:
                self._install_map(wire)

    @property
    def db(self):
        return self._db

    @db.setter
    def db(self, db) -> None:
        # Replica promotion reopens the store and swaps it in here;
        # everything holding the old (closed) database must follow —
        # most visibly the subscription hub, whose scans would otherwise
        # hit closed devices.
        self._db = db
        hub = getattr(self, "hub", None)
        if hub is not None:
            hub.rebind(db)
            if hasattr(db.streams, "lock_for"):
                db.streams.lock_for = self._lock_for

    def start(self) -> None:
        self._core.start()

    @property
    def live_connections(self) -> int:
        return self._core.live_connections

    # ------------------------------------------------------------- locking

    def _lock_for(self, stream: str) -> threading.Lock:
        with self._locks_guard:
            lock = self._stream_locks.get(stream)
            if lock is None:
                lock = self._stream_locks[stream] = threading.Lock()
            return lock

    # ------------------------------------------------------------- routing

    def _check_route(self, epoch: int | None) -> None:
        """Reject a write stamped with an older map epoch than ours.

        Unstamped writes (single-node clients, replication applies) and
        writes stamped at-or-above our epoch pass; a node that has never
        seen a map accepts everything.  Called with the stream lock
        held, so acceptance means the write fully applies before any
        later fence's tail-sync reads the stream.
        """
        if epoch is None or self.route_epoch is None:
            return
        if epoch >= self.route_epoch:
            return
        self.stale_rejections += 1
        if OBS.enabled:
            _STALE_REJECTIONS.inc()
        raise StaleRouteError(
            f"write routed with stale shard map epoch {epoch} "
            f"(current epoch {self.route_epoch})",
            epoch=self.route_epoch,
            wire_map=self._route_wire,
        )

    def _install_map(self, wire: dict) -> dict:
        """``map_update``: adopt a wire map if strictly newer."""
        from repro.cluster.placement import Endpoint, ShardMap

        newer = (
            self._route_wire is None
            or int(wire["epoch"]) > self.route_epoch
        )
        # A restart reloads the persisted map with pre-restart
        # endpoints, so the node cannot find itself in it and serves
        # unfiltered.  The orchestrator's re-push carries the same
        # epoch with live endpoints — adopt it to re-arm ownership
        # filtering.
        rearm = (
            not newer
            and int(wire["epoch"]) == self.route_epoch
            and self._self_shard is None
        )
        if newer or rearm:
            route_map = ShardMap.from_wire(wire)
            me = Endpoint(self.host, self.port)
            self_shard = None
            for spec in route_map.shards:
                if me in spec.nodes:
                    self_shard = spec.shard_id
                    break
            # Map/shard state becomes visible before the epoch does, so
            # a concurrent writer that sees the new epoch also sees the
            # map it needs for the stale-route reply.
            self._route_map = route_map
            self._self_shard = self_shard
            self._route_wire = wire
            self.route_epoch = int(wire["epoch"])
            if self.db.directory:
                from repro.cluster.routestate import save_route_state

                save_route_state(self.db.directory, wire)
            # Subscriptions on streams the new map's assignments touch
            # get a typed ``ownership_changed`` end: the routed
            # subscriber re-resolves the owner and resumes from its
            # cursor (possibly on another node after a live split).
            self.hub.on_routes_changed(route_map.stream_affected)
        return {"epoch": self.route_epoch}

    def _routes(self, stream: str):
        """``(route_map, self_shard)`` when an assignment touches
        *stream* — this node may store dead copies of ranges it handed
        off — or ``None`` when every local event is authoritative."""
        route_map, self_shard = self._route_map, self._self_shard
        if (
            route_map is None
            or self_shard is None
            or not route_map.stream_affected(stream)
        ):
            return None
        return route_map, self_shard

    def _owned(self, stream: str, t_start: int, t_end: int):
        """The time slices of ``[t_start, t_end]`` this node owns of
        *stream*, clipped to what the stream stores in any tier, or
        ``None`` when every local event is authoritative."""
        routes = self._routes(stream)
        if routes is None:
            return None
        route_map, self_shard = routes
        lo, hi = self.db.get_stream(stream).time_bounds(tiered=True) or (0, -1)
        return route_map.owned_intervals(
            stream, self_shard, max(t_start, lo), min(t_end, hi)
        )

    # --------------------------------------------------- protocol adapters

    def handle_json_framed(self, request: dict) -> tuple[int, bytes]:
        """An ``OP_JSON`` frame → ``(response_op, payload)``."""
        try:
            result = self._handle(request)
            if isinstance(result, _EventRows):
                return frames.OP_OK_BATCH, result.batch_payload()
            return frames.OP_OK, frames.encode_json_payload({"result": result})
        except StaleRouteError as error:
            return frames.OP_ERR, frames.encode_json_payload(
                _stale_payload(error)
            )
        except ChronicleError as error:
            return frames.OP_ERR, frames.encode_json_payload(
                {"error": str(error)}
            )
        except Exception as error:
            return frames.OP_ERR, frames.encode_json_payload(
                {"error": f"bad request: {error}"}
            )

    def handle_binary(
        self, op: int, payload: bytes, channel=None
    ) -> tuple[int, bytes]:
        """A binary hot-path frame → ``(response_op, payload)``.

        ``channel`` is the connection's push side (``repro.net.aio.
        PushChannel``); subscription ops hand it to the hub so pushed
        event batches ride the same socket."""
        if self.frame_tap is not None:
            self.frame_tap(op, payload)
        try:
            if op == frames.OP_APPEND_BATCH:
                result = self._binary_append_batch(payload)
            elif op == frames.OP_APPEND_BATCH_EPOCH:
                epoch, batch = frames.split_epoch_payload(payload)
                result = self._binary_append_batch(batch, epoch=epoch)
            elif op == frames.OP_REPLICATE_BATCH:
                result = self._binary_replicate_batch(payload)
            elif op == frames.OP_CATCHUP:
                return self._binary_catchup(payload)
            elif op == frames.OP_SUBSCRIBE:
                result = self.hub.subscribe(
                    frames.decode_json_payload(payload), channel
                )
            elif op == frames.OP_SUB_ACK:
                result = self.hub.ack(frames.decode_json_payload(payload))
            elif op == frames.OP_UNSUBSCRIBE:
                result = self.hub.unsubscribe(
                    frames.decode_json_payload(payload)
                )
            else:
                raise ProtocolError(f"unhandled binary op 0x{op:02x}")
            return frames.OP_OK, frames.encode_json_payload({"result": result})
        except StaleRouteError as error:
            return frames.OP_ERR, frames.encode_json_payload(
                _stale_payload(error)
            )
        except ChronicleError as error:
            return frames.OP_ERR, frames.encode_json_payload(
                {"error": str(error)}
            )
        except Exception as error:
            return frames.OP_ERR, frames.encode_json_payload(
                {"error": f"bad request: {error}"}
            )

    # ------------------------------------------------- binary hot handlers

    def _binary_append_batch(self, payload: bytes, epoch: int | None = None) -> int:
        stream, schema, timestamps, columns = frames.decode_batch_payload(
            payload
        )
        with self._lock_for(stream):
            # The epoch check must sit inside the stream lock: a
            # migration's fence (map_update) and final tail-sync take
            # this lock too, so any write that passed the old-epoch
            # check has fully applied before the fence lands — no
            # check-then-apply race can lose an acknowledged event.
            self._check_route(epoch)
            target = self.db.get_stream(stream)
            if target.schema != schema:
                raise ProtocolError(
                    f"batch schema {schema!r} does not match stream "
                    f"schema {target.schema!r}"
                )
            count = target.append_columns(timestamps, columns)
            self.hub.notify(stream, count)
            self._replicate(
                {"op": "append_batch", "stream": stream, "raw": payload}
            )
        return count

    def _binary_replicate_batch(self, payload: bytes) -> int:
        """A replica applying its primary's batch: local apply only —
        never re-replicated.  The embedded schema lets catch-up reach a
        replica that missed the stream's creation."""
        stream, schema, timestamps, columns = frames.decode_batch_payload(
            payload
        )
        with self._lock_for(stream):
            if stream not in self.db.streams:
                self.db.create_stream(stream, schema)
            target = self.db.get_stream(stream)
            if target.schema != schema:
                raise ProtocolError(
                    f"batch schema {schema!r} does not match stream "
                    f"schema {target.schema!r}"
                )
            count = target.append_columns(timestamps, columns)
            self.hub.notify(stream, count)
        return count

    def _binary_catchup(self, payload: bytes) -> tuple[int, bytes]:
        """Catch-up replay, answered in the same columnar batch format
        the ingest path uses.  Deliberately blind to ownership: a
        migration's final tail-sync reads the source after its fence."""
        request = frames.decode_json_payload(payload)
        name = request["stream"]
        with self._lock_for(name):
            stream = self.db.get_stream(name)
            batch = read_events(
                stream, int(request["t_start"]), int(request["t_end"])
            )
        return frames.OP_OK_BATCH, _EventRows(
            name, stream.schema, batch
        ).batch_payload()

    # ------------------------------------------------------------ handlers

    def _handle(self, request: dict):
        op = request.get("op")
        if op == "ping":
            return "pong"
        if op == "query":
            # Parse outside any lock; lock only the queried stream.
            query = parse_query(request["sql"])
            with self._lock_for(query.stream):
                return self._handle_query(request, query)
        if op == "stats" and request.get("stream") is not None:
            with self._lock_for(request["stream"]):
                return self.db.get_stream(request["stream"]).stats()
        if op == "schema":
            with self._lock_for(request["stream"]):
                return self.db.get_stream(request["stream"]).schema.to_dict()
        with self._db_lock:
            return self._handle_db_op(op, request)

    def _handle_query(self, request: dict, query):
        """One planner call per request: the owned time slices (dead
        copies a split left behind stay unread) and the reply format —
        finals, or mergeable components for a router's ``partials``
        scatter — are arguments of the same plans."""
        partials = bool(request.get("partials"))
        owned = self._owned(query.stream, query.t_start, query.t_end)
        result = execute_query(
            self.db, query, materialize=False, owned=owned,
            components=partials,
        )
        if partials:
            return {"partials": result}
        if isinstance(result, dict):
            return {"aggregates": result}
        if not isinstance(query.select, SelectStar):
            return {"groups": result}  # GROUP BY time(...) rows
        schema = self.db.get_stream(query.stream).schema
        return _EventRows(query.stream, schema, result)

    def _handle_db_op(self, op: str, request: dict):
        if op == "create_stream":
            schema = EventSchema.from_dict(request["schema"])
            self.db.create_stream(request["name"], schema)
            self._replicate(request)
            return None
        if op == "flush":
            self.db.flush()
            return None
        if op == "list_streams":
            return sorted(self.db.streams)
        if op == "stats":
            stats = self.db.stats()
            stats["subscriptions"] = self.hub.stats()
            return stats
        if op == "map_update":
            return self._install_map(request["map"])
        if op == "map_sync":
            return {"epoch": self.route_epoch, "map": self._route_wire}
        if op == "health":
            # Richer than ping: proves the database answers and reports
            # per-stream progress, which failover uses to pick the most
            # caught-up replica.
            streams = {}
            for name, stream in self.db.streams.items():
                bounds = stream.time_bounds()
                streams[name] = {
                    "appended": stream.appended,
                    "t_min": bounds[0] if bounds else None,
                    "t_max": bounds[1] if bounds else None,
                }
            return {"status": "ok", "streams": streams}
        raise ValueError(f"unknown op {op!r}")

    def _replicate(self, request: dict) -> None:
        if self.replicator is not None:
            self.replicator(request)

    def stop(self) -> None:
        # Drain long-lived subscriber connections first: every live
        # subscription gets a typed ``server_closing`` end notice (and a
        # bounded wait for it to flush) before the core severs sockets —
        # a parked reader sees a clean close, not a hang or a bare reset.
        self.hub.close_all("server_closing")
        self._core.stop()

    def __enter__(self) -> "ChronicleServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
