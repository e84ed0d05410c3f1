"""Cache-oblivious lookahead array (COLA) secondary index.

The paper offers COLA as an alternative log-structured secondary index
with "better support for proximity and range queries" than a native
LSM-tree (Section 5.3): a COLA keeps exactly one sorted array per power-
of-two level, so a range query probes at most ``log2 N`` runs, whereas a
size-tiered LSM may accumulate ``fanout`` runs per tier.  Buffer, runs
and lookups are the shared :class:`~repro.index.secondary.SecondaryIndex`
core; this module is only the binary-carry merge schedule.
"""

from __future__ import annotations

import numpy as np

from repro.index.secondary import Run, SecondaryIndex


class ColaIndex(SecondaryIndex):
    """A lookahead array of doubling sorted levels."""

    KIND = 1

    def __init__(
        self,
        device,
        base_capacity: int = 1024,
        bloom_fpr: float = 0.01,
    ):
        super().__init__(device, base_capacity, bloom_fpr)
        self.levels: list[Run | None] = []

    def _place(self, postings: np.ndarray) -> None:
        """Carry the buffer up, merging with every occupied level on the
        way, into the first empty one (binary-counter increment)."""
        level = 0
        while level < len(self.levels) and self.levels[level] is not None:
            postings = self._merge([self.levels[level]], postings)
            self.levels[level] = None
            level += 1
        if level == len(self.levels):
            self.levels.append(None)
        self.levels[level] = self._write_run(postings)

    def _slots(self) -> tuple[int, list[tuple[int, Run]]]:
        return len(self.levels), [
            (level, run) for level, run in enumerate(self.levels)
            if run is not None
        ]

    def _adopt(self, shape: int, slots: list[tuple[int, Run]]) -> bool:
        levels: list[Run | None] = [None] * shape
        for level, run in slots:
            if not 0 <= level < shape or levels[level] is not None:
                return False
            levels[level] = run
        self.levels = levels
        return True

    @property
    def level_count(self) -> int:
        return len(self._runs())
