"""The ChronicleDB facade.

"ChronicleDB is designed either as a serverless library to be tightly
integrated in an application or as a standalone database server"
(Section 1).  This class is the library mode: create streams, append
events, query.  The network server in :mod:`repro.net` wraps it for the
standalone mode.
"""

from __future__ import annotations

import json
import os

from repro import obs
from repro.core.config import ChronicleConfig
from repro.core.devices import DeviceProvider
from repro.core.scheduler import LoadScheduler
from repro.core.stream import EventStream
from repro.core.streamtable import StreamTable
from repro.errors import ChronicleError, ConfigError, QueryError, RecoveryError
from repro.events.schema import EventSchema
from repro.lifecycle.manager import LifecycleManager
from repro.simdisk import SimulatedClock
from repro.storage.constants import FORMAT_VERSION, format_name, parse_format

_MANIFEST = "manifest.json"


class ChronicleDB:
    """An embedded event store holding named streams.

    Parameters
    ----------
    directory:
        Where stream files live; ``None`` keeps everything in memory
        (still byte-exact — useful for tests and benchmarks).
    config:
        Default :class:`ChronicleConfig` for new streams.
    clock:
        Optional shared :class:`SimulatedClock` for simulated-time
        benchmarking; build it with a ``CpuCostModel`` to price the
        counted CPU work as well as device I/O.
    """

    def __init__(
        self,
        directory: str | None = None,
        config: ChronicleConfig | None = None,
        clock: SimulatedClock | None = None,
        fault_plan=None,
    ):
        self.directory = directory
        self.config = config if config is not None else ChronicleConfig()
        self.devices = DeviceProvider(
            directory,
            data_model=self.config.data_disk,
            log_model=self.config.log_disk,
            clock=clock,
            fault_plan=fault_plan,
        )
        self.streams = StreamTable(
            activate=self._activate_stream,
            deactivate=self._deactivate_stream,
            max_active=self.config.max_active_streams,
        )
        self.streams.on_activated(self._on_stream_activated)
        self._stream_configs: dict[str, ChronicleConfig] = {}
        self._lifecycles: dict[str, LifecycleManager] = {}
        #: The manifest's format: a reopened store keeps its own.
        self.format_version = FORMAT_VERSION
        self._closed = False

    # ------------------------------------------------------------ lifecycle

    @classmethod
    def open(
        cls,
        directory: str,
        config: ChronicleConfig | None = None,
        clock: SimulatedClock | None = None,
        fault_plan=None,
    ) -> "ChronicleDB":
        """Reopen an on-disk database, recovering crashed streams."""
        db = cls(directory, config, clock, fault_plan=fault_plan)
        manifest_path = os.path.join(directory, _MANIFEST)
        if os.path.exists(manifest_path):
            # Never touch the manifest on a failed open: every failure
            # below surfaces as a typed RecoveryError while the manifest
            # (atomically replaced on writes) stays byte-identical, so a
            # fixed-up database can be opened again.
            try:
                with open(manifest_path) as fh:
                    manifest = json.load(fh)
            except (OSError, ValueError) as exc:
                raise RecoveryError(f"unreadable manifest: {exc}") from exc
            db.format_version = parse_format(manifest.get("format"))
            for name, state in manifest.get("streams", {}).items():
                if db.config.max_active_streams is not None:
                    # Multi-tenant mode: park every stream as passive
                    # state and recover lazily on first touch, so open()
                    # stays O(manifest) for tens of thousands of tenants.
                    db.streams.park(name, state)
                    continue
                db.streams[name] = db._activate_stream(name, state)
                db._attach_lifecycle(name)
        return db

    def _activate_stream(self, name: str, state: dict) -> EventStream:
        """Rebuild one stream from its (parked or manifest) state — the
        per-stream half of :meth:`open`, reused by the
        :class:`StreamTable` when a passive stream is touched."""
        try:
            # Tier recovery first: resolve in-flight migrations and drop
            # migrated splits from the manifest view, so the split
            # restore only sees hot devices that exist.
            from repro.recovery.tier_recovery import recover_stream_tiers

            config = self._stream_configs.get(name, self.config)
            state, tiers, index_floor = recover_stream_tiers(
                name, state, config, self.devices
            )
            stream = EventStream.restore(
                name, state, config, self.devices,
                LoadScheduler(tc_threshold=config.tc_threshold),
            )
            stream.tiers = tiers
            stream._next_split_index = max(
                stream._next_split_index, index_floor
            )
        except ChronicleError as exc:
            raise RecoveryError(
                f"failed to recover stream {name!r}: {exc}"
            ) from exc
        return stream

    def _deactivate_stream(self, name: str, stream: EventStream) -> dict:
        """Park one stream: the per-stream half of :meth:`close` (flush,
        seal, capture manifest state).  Sealing matters — crash recovery
        deliberately sheds the open leaf, so a clean park must commit it
        the way a clean shutdown does.  Devices belong to the provider
        and stay open; re-activation is :meth:`_activate_stream` against
        the very same devices."""
        stream.flush()
        stream.close()
        self._lifecycles.pop(name, None)
        return stream.manifest_state()

    def _on_stream_activated(self, name: str, stream: EventStream) -> None:
        self._attach_lifecycle(name)

    def _write_manifest(self) -> None:
        if not self.directory:
            return
        entries = dict(self.streams.passive_states())
        entries.update(
            (name, stream.manifest_state())
            for name, stream in self.streams.items()
        )
        manifest = {
            "format": format_name(self.format_version),
            "streams": entries,
        }
        path = os.path.join(self.directory, _MANIFEST)
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(manifest, fh)
        os.replace(tmp, path)

    def close(self) -> None:
        """Seal every stream and persist the manifest."""
        if self._closed:
            return
        for stream in self.streams.values():
            stream.close()
        self._write_manifest()
        self.devices.close()
        self._closed = True

    def __enter__(self) -> "ChronicleDB":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -------------------------------------------------------------- streams

    def create_stream(
        self,
        name: str,
        schema: EventSchema,
        config: ChronicleConfig | None = None,
    ) -> EventStream:
        """Create a new event stream."""
        if name in self.streams:
            raise ConfigError(f"stream {name!r} already exists")
        if not name or "/" in name:
            raise ConfigError(f"invalid stream name {name!r}")
        stream_config = config if config is not None else self.config
        stream = EventStream(
            name,
            schema,
            stream_config,
            self.devices,
            LoadScheduler(tc_threshold=stream_config.tc_threshold),
        )
        self.streams[name] = stream
        self._stream_configs[name] = stream_config
        self._attach_lifecycle(name)
        self._write_manifest()
        return stream

    def _attach_lifecycle(self, name: str) -> None:
        config = self._stream_configs.get(name, self.config)
        policy = config.lifecycle
        if policy is not None and policy.any_enabled:
            self._lifecycles[name] = LifecycleManager(
                self.streams[name], policy
            )

    def lifecycle_tick(self, name: str | None = None,
                       now: int | None = None) -> dict:
        """Run one tiering tick (all streams, or just *name*).

        Returns ``{stream: {"warm": [...], "cold": [...], "expired":
        [...], "deferred": bool}}`` for the streams that have a
        lifecycle.  The manifest is rewritten when any split migrated,
        so a clean shutdown is never behind the tier log.
        """
        managers = (
            {name: self._lifecycles[name]}
            if name is not None and name in self._lifecycles
            else dict(self._lifecycles)
            if name is None
            else {}
        )
        results = {}
        moved = False
        for stream_name, manager in managers.items():
            result = manager.tick(now)
            results[stream_name] = result
            moved = moved or bool(
                result["warm"] or result["cold"] or result["expired"]
            )
        if moved:
            self._write_manifest()
        return results

    def get_stream(self, name: str) -> EventStream:
        try:
            return self.streams[name]
        except KeyError:
            raise QueryError(
                f"unknown stream {name!r}; have {sorted(self.streams)}"
            ) from None

    def drop_stream(self, name: str) -> None:
        stream = self.get_stream(name)
        for split in list(stream.splits):
            self.devices.drop_split(name, split.index)
        for index in list(stream.tiers.warm):
            self.devices.drop_warm(name, index)
        for index in list(stream.tiers.cold):
            self.devices.drop_cold(name, index)
        del self.streams[name]
        self._lifecycles.pop(name, None)
        self._write_manifest()

    def flush(self) -> None:
        for stream in self.streams.values():
            stream.flush()
        self._write_manifest()

    def stats(self) -> dict:
        """Database-wide observability snapshot.

        Always includes per-stream ingestion state, per-device I/O
        accounting and the simulated clock with its work counters; the
        ``obs`` section carries the process-global metrics/spans and is
        empty unless :func:`repro.obs.enable` was called.
        """
        clock = self.devices.clock
        table = (
            {
                "max_active": self.streams.max_active,
                "active": self.streams.active_count(),
                "passive": len(self.streams) - self.streams.active_count(),
            }
            if self.streams.max_active is not None
            else None
        )
        return {
            "streams": {
                name: stream.stats() for name, stream in self.streams.items()
            },
            "stream_table": table,
            "lifecycle": {
                name: manager.stats()
                for name, manager in self._lifecycles.items()
            },
            "devices": self.devices.stats(),
            "clock": {
                "now": clock.now,
                "io_seconds": clock.io_seconds,
                "cpu_seconds": clock.cpu_seconds,
                "work": clock.work(),
            },
            "obs": obs.snapshot() if obs.enabled() else {},
        }

    # ---------------------------------------------------------------- query

    def execute(self, query):
        """Run an SQL-like query — text or already parsed (see
        :mod:`repro.query`)."""
        from repro.query.planner import execute

        return execute(self, query)

    def explain(self, sql: str) -> dict:
        """The planner's chosen access path for *sql*, without running it."""
        from repro.query.planner import explain

        return explain(self, sql)
