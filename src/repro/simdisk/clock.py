"""Simulated time."""

from __future__ import annotations

from repro.errors import ConfigError
from repro.simdisk.cost import CpuCostModel

#: Work counter -> the :class:`CpuCostModel` field that prices one unit.
WORK_UNITS = {
    "events_serialized": "serialize_event",
    "sorted_inserts": "sorted_insert",
    "node_visits": "node_visit",
    "events_deserialized": "deserialize_event",
    "values_decoded": "decode_value",
    "bytes_compressed": "compress_byte",
    "bytes_decompressed": "decompress_byte",
}


class SimulatedClock:
    """A monotonically advancing simulated clock, in seconds.

    One clock is shared by every device of an engine, so `now` reflects
    the critical path of a single-threaded worker.  Devices charge I/O
    seconds as they transfer bytes.  The engine's layers only count
    work on the clock's plain integer counters (:data:`WORK_UNITS`);
    `cpu_seconds` prices those counts with *cost_model* when read (the
    paper notes ingestion is CPU-bound on compression and serialization,
    Section 7.5).  Without a model the counts still accumulate and CPU
    time stays 0.  `now` is `io_seconds + cpu_seconds`: no overlap.
    """

    def __init__(self, cost_model: CpuCostModel | None = None) -> None:
        self.cost_model = cost_model
        self.reset()

    def charge_io(self, seconds: float) -> None:
        """Advance time for disk activity."""
        if seconds < 0:
            raise ConfigError(f"negative time charge: {seconds}")
        self.io_seconds += seconds

    def charge_cpu(self, seconds: float) -> None:
        """Advance CPU time directly: the baseline stores' own cost
        models use this; the engine counts work instead."""
        if seconds < 0:
            raise ConfigError(f"negative time charge: {seconds}")
        self._charged_cpu += seconds

    @property
    def cpu_seconds(self) -> float:
        seconds = self._charged_cpu
        if self.cost_model is not None:
            for counter, unit in WORK_UNITS.items():
                seconds += getattr(self, counter) * getattr(self.cost_model, unit)
        return seconds

    @property
    def now(self) -> float:
        return self.io_seconds + self.cpu_seconds

    def work(self) -> dict[str, int]:
        """The work counters by name."""
        return {counter: getattr(self, counter) for counter in WORK_UNITS}

    def reset(self) -> None:
        """Zero the clock and its work counters (used between benchmark
        phases)."""
        self.io_seconds = 0.0
        self._charged_cpu = 0.0
        for counter in WORK_UNITS:
            setattr(self, counter, 0)

    def __repr__(self) -> str:
        return (
            f"SimulatedClock(now={self.now:.6f}s, io={self.io_seconds:.6f}s,"
            f" cpu={self.cpu_seconds:.6f}s)"
        )
