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

    def __init__(
        self,
        device,
        memtable_capacity: int = 4096,
        fanout: int = 4,
        bloom_fpr: float = 0.01,
        clock=None,
        cost=None,
    ):
        if fanout < 2:
            raise ConfigError("fanout must be >= 2")
        super().__init__(device, memtable_capacity, bloom_fpr, clock, cost)
        self.fanout = fanout
        #: tier -> runs; tier i holds runs of roughly capacity * fanout^i.
        self.tiers: dict[int, list[Run]] = {}

    def _place(self, postings: np.ndarray, tier: int = 0) -> None:
        runs = self.tiers.setdefault(tier, [])
        runs.append(self._write_run(postings))
        if len(runs) >= self.fanout:
            del self.tiers[tier]
            self._place(self._merge(runs), tier + 1)

    def _runs(self) -> list[Run]:
        return [run for runs in self.tiers.values() for run in runs]

    @property
    def run_count(self) -> int:
        return len(self._runs())
