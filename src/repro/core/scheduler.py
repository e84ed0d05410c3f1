"""The load scheduler (paper, Sections 3.2 and 5.5).

ChronicleDB maximizes ingestion speed under fluctuating rates by shedding
secondary-index maintenance when the system falls behind: attributes with
*high* temporal correlation lose their secondary index first (lightweight
min/max indexing serves them well anyway), and under severe overload all
secondary indexing stops, creating an *irregular* time split.
Re-activation happens at the next regular split boundary.
"""

from __future__ import annotations

import enum
from typing import Callable

from repro.errors import ConfigError


#: Temporal-correlation threshold for partial indexing (Section 5.4):
#: attributes at or above it are served by lightweight indexing alone
#: when the scheduler needs to shed load.
TC_THRESHOLD = 0.9


class Pressure(enum.IntEnum):
    """Ingestion pressure levels derived from queue depths."""

    NORMAL = 0  # maintain every configured secondary index
    ELEVATED = 1  # drop secondaries on high-tc attributes
    OVERLOAD = 2  # drop all secondaries (irregular split)


class LoadScheduler:
    """Watermark-based pressure detection + index selection policy."""

    def __init__(
        self,
        high_watermark: int = 10_000,
        overload_watermark: int = 50_000,
        low_watermark: int = 1_000,
        tc_threshold: float = TC_THRESHOLD,
    ):
        if not low_watermark <= high_watermark <= overload_watermark:
            raise ConfigError("watermarks must satisfy low <= high <= overload")
        self.high_watermark = high_watermark
        self.overload_watermark = overload_watermark
        self.low_watermark = low_watermark
        self.tc_threshold = tc_threshold
        self.pressure = Pressure.NORMAL
        #: Called with (old, new) on every pressure transition; streams use
        #: this to trigger irregular splits (Section 5.5).
        self.on_transition: Callable[[Pressure, Pressure], None] | None = None

    def report_queue_depth(self, depth: int) -> Pressure:
        """Update pressure from the current ingestion queue depth."""
        new = self.pressure
        if depth >= self.overload_watermark:
            new = Pressure.OVERLOAD
        elif depth >= self.high_watermark:
            new = max(self.pressure, Pressure.ELEVATED)
        elif depth <= self.low_watermark:
            new = Pressure.NORMAL
        if new != self.pressure:
            old, self.pressure = self.pressure, new
            if self.on_transition is not None:
                self.on_transition(old, new)
        return self.pressure

    def enabled_attributes(
        self, configured: list[str], tc_scores: dict[str, float]
    ) -> list[str]:
        """Which configured secondary indexes to maintain right now.

        Attributes with low temporal correlation have priority: lightweight
        indexing cannot serve them, so their secondaries are kept longest.
        """
        if self.pressure is Pressure.OVERLOAD:
            return []
        ordered = sorted(configured, key=lambda a: tc_scores.get(a, 1.0))
        if self.pressure is Pressure.ELEVATED:
            return [
                attr
                for attr in ordered
                if tc_scores.get(attr, 1.0) < self.tc_threshold
            ]
        return ordered

    @property
    def secondary_indexing_allowed(self) -> bool:
        return self.pressure is not Pressure.OVERLOAD
