"""LSM-tree secondary index (paper, Section 5.3).

A size-tiered log-structured merge tree: postings accumulate in an
in-memory memtable, flush to immutable sorted runs, and runs of similar
size merge when a tier fills.  Every run carries a Bloom filter so
exact-match queries skip non-matching runs — the configuration the paper
evaluates in Figures 13a/13b.  Memtable, runs and lookups are the shared
:class:`~repro.index.secondary.SecondaryIndex` core; this module is only
the size-tiered merge schedule.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.index.secondary import Run, SecondaryIndex


class LsmIndex(SecondaryIndex):
    """Size-tiered LSM tree over ``(value, t, block_id)`` postings."""

    KIND = 0

    def __init__(
        self,
        device,
        memtable_capacity: int = 4096,
        fanout: int = 4,
        bloom_fpr: float = 0.01,
    ):
        if fanout < 2:
            raise ConfigError("fanout must be >= 2")
        super().__init__(device, memtable_capacity, bloom_fpr)
        self.fanout = fanout
        #: tier -> runs; tier i holds runs of roughly capacity * fanout^i.
        self.tiers: dict[int, list[Run]] = {}

    def _place(self, postings: np.ndarray, tier: int = 0) -> None:
        runs = self.tiers.setdefault(tier, [])
        runs.append(self._write_run(postings))
        if len(runs) >= self.fanout:
            del self.tiers[tier]
            self._place(self._merge(runs), tier + 1)

    def _slots(self) -> tuple[int, list[tuple[int, Run]]]:
        return self.fanout, [
            (tier, run) for tier, runs in self.tiers.items() for run in runs
        ]

    def _adopt(self, shape: int, slots: list[tuple[int, Run]]) -> bool:
        tiers: dict[int, list[Run]] = {}
        for tier, run in slots:
            tiers.setdefault(tier, []).append(run)
        if shape != self.fanout or any(
            tier < 0 or len(runs) >= self.fanout for tier, runs in tiers.items()
        ):
            return False
        self.tiers = tiers  # tiers in lookup order, as the record lists them
        return True

    @property
    def run_count(self) -> int:
        return len(self._runs())
