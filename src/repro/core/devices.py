"""Device provisioning for streams and splits.

One shared simulated clock spans every device of a database so simulated
throughput reflects the single-worker critical path.  Data files live on
the data disk model (the paper's HDD); write-ahead and mirror logs live
on the log disk model (the paper's SSD, Section 7.1).  With a directory,
devices are backed by real files and survive the process.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import ConfigError, TransientDiskError
from repro.simdisk import (
    HDD_2017,
    INSTANT,
    SSD_2017,
    DiskModel,
    FaultPlan,
    SimulatedClock,
    SimulatedDisk,
)

_MODELS = {"instant": INSTANT, "hdd": HDD_2017, "ssd": SSD_2017}


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff: the one retry loop of the engine.

    Retry *k* (from 0) waits ``backoff_seconds * multiplier**k``; the
    caller decides what a wait is.  :class:`RetryingDisk` charges it to
    the shared simulated clock (backoff shows up in benchmark critical
    paths without slowing real tests down), and
    :class:`repro.cluster.pool.ClientPool` sleeps wall time.
    """

    max_attempts: int = 4
    backoff_seconds: float = 5e-4
    multiplier: float = 4.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.backoff_seconds < 0 or self.multiplier < 1:
            raise ConfigError("invalid backoff parameters")

    def run(self, operation, retryable, wait, *args):
        """``operation(*args)``, tried up to ``max_attempts`` times.

        An error for which ``retryable(error)`` is false propagates at
        once; a retryable one is retried after ``wait(delay)``, and the
        last one is re-raised when the budget runs out.
        """
        delay = self.backoff_seconds
        for attempt in range(self.max_attempts):
            if attempt:
                wait(delay)
                delay *= self.multiplier
            try:
                return operation(*args)
            except Exception as error:
                if not retryable(error) or attempt + 1 == self.max_attempts:
                    raise


def _transient(error: Exception) -> bool:
    return isinstance(error, TransientDiskError)


class RetryingDisk:
    """Proxy over a :class:`SimulatedDisk` that absorbs transient faults.

    Only :class:`~repro.errors.TransientDiskError` is retried —
    :class:`~repro.errors.DiskCrashed` models a power failure and must
    propagate so the caller dies like the process would.  When the retry
    budget is exhausted the last transient error is re-raised, keeping
    the failure surface typed.
    """

    def __init__(self, disk: SimulatedDisk, policy: RetryPolicy):
        self.inner = disk
        self.policy = policy
        self.retries = 0

    def _backoff(self, delay: float) -> None:
        self.retries += 1
        self.inner.clock.charge_io(delay)

    def _run(self, operation, *args):
        return self.policy.run(operation, _transient, self._backoff, *args)

    def write(self, offset: int, data: bytes) -> None:
        self._run(self.inner.write, offset, data)

    def append(self, data: bytes) -> int:
        return self._run(self.inner.append, data)

    def read(self, offset: int, size: int) -> bytes:
        return self._run(self.inner.read, offset, size)

    def truncate(self, size: int) -> None:
        self.inner.truncate(size)

    def close(self) -> None:
        self.inner.close()

    @property
    def size(self) -> int:
        return self.inner.size

    @property
    def stats(self):
        return self.inner.stats

    @property
    def model(self):
        return self.inner.model

    @property
    def clock(self):
        return self.inner.clock

    @property
    def label(self):
        return self.inner.label

    @property
    def fault_plan(self):
        return self.inner.fault_plan


def resolve_model(name: str | DiskModel) -> DiskModel:
    if isinstance(name, DiskModel):
        return name
    try:
        return _MODELS[name]
    except KeyError:
        raise ConfigError(
            f"unknown disk model {name!r}; choose from {sorted(_MODELS)}"
        ) from None


class DeviceProvider:
    """Creates and tracks the devices of one ChronicleDB instance."""

    def __init__(
        self,
        directory: str | None = None,
        data_model: str | DiskModel = "instant",
        log_model: str | DiskModel = "instant",
        clock: SimulatedClock | None = None,
        fault_plan: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
    ):
        self.directory = directory
        self.data_model = resolve_model(data_model)
        self.log_model = resolve_model(log_model)
        self.clock = clock if clock is not None else SimulatedClock()
        self.fault_plan = fault_plan
        # With faults in play, devices default to bounded retry so the
        # engine absorbs transient errors; crashes still propagate.
        self.retry = retry if retry is not None else (
            RetryPolicy() if fault_plan is not None else None
        )
        self.devices: dict[str, SimulatedDisk] = {}
        if directory:
            os.makedirs(directory, exist_ok=True)

    def _device(self, key: str, model: DiskModel) -> SimulatedDisk:
        if key in self.devices:
            return self.devices[key]
        path = None
        if self.directory:
            path = os.path.join(self.directory, key)
            os.makedirs(os.path.dirname(path), exist_ok=True)
        device = SimulatedDisk(
            model, self.clock, path=path, label=key, fault_plan=self.fault_plan
        )
        if self.retry is not None:
            device = RetryingDisk(device, self.retry)
        self.devices[key] = device
        return device

    def data_device(self, stream: str, split_index: int) -> SimulatedDisk:
        return self._device(f"{stream}/split-{split_index:06d}.cdb", self.data_model)

    def wal_device(self, stream: str, split_index: int) -> SimulatedDisk:
        return self._device(f"{stream}/split-{split_index:06d}.wal", self.log_model)

    def mirror_device(self, stream: str, split_index: int) -> SimulatedDisk:
        return self._device(
            f"{stream}/split-{split_index:06d}.mirror", self.log_model
        )

    def secondary_device(
        self, stream: str, split_index: int, attribute: str
    ) -> SimulatedDisk:
        return self._device(
            f"{stream}/split-{split_index:06d}.{attribute}.idx", self.data_model
        )

    # Tier devices (repro.lifecycle): warm re-compressed splits and cold
    # rollups are data files; the tier log is a log file, like the WAL.

    def warm_device(self, stream: str, split_index: int) -> SimulatedDisk:
        return self._device(f"{stream}/warm-{split_index:06d}.cdb", self.data_model)

    def cold_device(self, stream: str, split_index: int) -> SimulatedDisk:
        return self._device(f"{stream}/cold-{split_index:06d}.agg", self.data_model)

    def tier_log_device(self, stream: str) -> SimulatedDisk:
        return self._device(f"{stream}/tiers.log", self.log_model)

    def _key_exists(self, key: str) -> bool:
        if key in self.devices:
            return True
        if self.directory:
            return os.path.exists(os.path.join(self.directory, key))
        return False

    def exists(self, stream: str, split_index: int) -> bool:
        return self._key_exists(f"{stream}/split-{split_index:06d}.cdb")

    def warm_exists(self, stream: str, split_index: int) -> bool:
        return self._key_exists(f"{stream}/warm-{split_index:06d}.cdb")

    def cold_exists(self, stream: str, split_index: int) -> bool:
        return self._key_exists(f"{stream}/cold-{split_index:06d}.agg")

    def tier_log_exists(self, stream: str) -> bool:
        return self._key_exists(f"{stream}/tiers.log")

    def _drop_prefix(self, prefix: str) -> None:
        """Delete every device whose key starts with *prefix*.

        Looks at the backing directory too, not just the live handles —
        after a crash, a device that was written before the crash exists
        only as a file until something opens it, and tier recovery must
        still be able to drop it.
        """
        for key in [k for k in self.devices if k.startswith(prefix)]:
            device = self.devices.pop(key)
            device.close()
            if self.directory:
                path = os.path.join(self.directory, key)
                if os.path.exists(path):
                    os.remove(path)
        if self.directory:
            parent, _, name_prefix = prefix.rpartition("/")
            folder = os.path.join(self.directory, parent)
            if os.path.isdir(folder):
                for name in os.listdir(folder):
                    if name.startswith(name_prefix):
                        os.remove(os.path.join(folder, name))

    def drop_split(self, stream: str, split_index: int) -> None:
        """Delete every device of one split (retention, Section 5.4)."""
        self._drop_prefix(f"{stream}/split-{split_index:06d}")

    def drop_warm(self, stream: str, split_index: int) -> None:
        self._drop_prefix(f"{stream}/warm-{split_index:06d}")

    def drop_cold(self, stream: str, split_index: int) -> None:
        self._drop_prefix(f"{stream}/cold-{split_index:06d}")

    def stats(self) -> dict:
        """Per-device I/O accounting: bytes, seeks, simulated vs wall time."""
        report = {}
        for key in sorted(self.devices):
            device = self.devices[key]
            stats = device.stats
            report[key] = {
                "model": device.model.name,
                "size_bytes": device.size,
                "bytes_written": stats.bytes_written,
                "bytes_read": stats.bytes_read,
                "seeks": stats.seeks,
                "sim_seconds": stats.sim_seconds,
                "wall_seconds": stats.wall_seconds,
            }
        return report

    def close(self) -> None:
        for device in self.devices.values():
            device.close()
        self.devices.clear()
