"""Engine configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.lifecycle.policy import LifecyclePolicy
from repro.storage.constants import DEFAULT_LBLOCK_SIZE, DEFAULT_MACRO_SIZE


@dataclass
class ChronicleConfig:
    """Tunables for streams and their storage.

    Defaults follow the paper's experimental setup (Section 7.1): 8 KiB
    L-blocks, 32 KiB macro blocks, 10 % leaf spare space, LZ-class
    compression, single worker.
    """

    lblock_size: int = DEFAULT_LBLOCK_SIZE
    macro_size: int = DEFAULT_MACRO_SIZE
    codec: str = "zlib"
    #: Leaf spare for out-of-order inserts (Section 5.7.1).
    lblock_spare: float = 0.1
    #: Macro-block spare for compression-ratio drift (Section 5.7.1).
    macro_spare: float = 0.05
    #: Attributes whose aggregates live in TAB+-tree entries (None = all).
    indexed_attributes: list[str] | None = None
    #: Store (min, max, sum, sum_sq) instead of (min, max, sum) per entry:
    #: +8 bytes per indexed attribute buys O(log n) stdev queries.
    extended_aggregates: bool = False
    #: Secondary indexes: attribute name -> "lsm" | "cola".
    secondary_indexes: dict[str, str] = field(default_factory=dict)
    #: Application-time width of a regular time split (None = one split).
    time_split_interval: int | None = None
    #: Out-of-order queue capacity (Algorithm 3).
    queue_capacity: int = 1024
    #: Events between checkpoints of the out-of-order buffer.
    checkpoint_interval: int = 4096
    #: LRU node-buffer capacity.
    buffer_capacity: int = 1024
    #: Disk model names for the device provider: "instant", "hdd", "ssd".
    data_disk: str = "instant"
    log_disk: str = "instant"
    #: Validate event values against the schema on every append.
    validate_events: bool = False
    #: Temporal-correlation threshold for partial indexing (Section 5.4):
    #: attributes at or above it are served by lightweight indexing alone
    #: when the scheduler needs to shed load.
    tc_threshold: float = 0.9
    #: LSM/COLA tuning.
    memtable_capacity: int = 4096
    lsm_fanout: int = 4
    #: Age-based tiering of closed time ranges (None = never tier).
    lifecycle: LifecyclePolicy | None = None
    #: Upper bound on resident (activated) streams; the rest are parked
    #: as passive manifest state and re-activated on first touch
    #: (:mod:`repro.core.streamtable`).  None = keep everything resident.
    max_active_streams: int | None = None

    def __post_init__(self) -> None:
        if self.macro_size % self.lblock_size != 0:
            raise ConfigError("macro_size must be a multiple of lblock_size")
        if self.max_active_streams is not None and self.max_active_streams < 1:
            raise ConfigError("max_active_streams must be >= 1")
        if self.time_split_interval is not None and self.time_split_interval <= 0:
            raise ConfigError("time_split_interval must be positive")
        if (
            self.lifecycle is not None
            and self.lifecycle.any_enabled
            and self.time_split_interval is None
        ):
            raise ConfigError(
                "lifecycle tiering needs time_split_interval: only closed "
                "splits can migrate"
            )
        for attr, kind in self.secondary_indexes.items():
            if kind not in ("lsm", "cola"):
                raise ConfigError(
                    f"unknown secondary index kind {kind!r} for {attr!r}"
                )
