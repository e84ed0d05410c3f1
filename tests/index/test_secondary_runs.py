"""Columnar run core == the per-posting algorithm it replaced.

The old implementation (a tuple list kept sorted with ``insort``, one
``ENTRY.pack`` per posting per run, size-tiered / binary-carry merges of
re-boxed tuples) lives on here as a small reference model.  Random
postings fed in random run lengths through ``insert_run``, and one by one
through ``insert``, must leave the same device bytes, the same run/level
layout and the same lookup answers as the model.

NaN is defined here, because tuple comparison never defined it: a NaN
value sorts after every real value (ties by ``(t, block_id)``) and no
lookup ever matches it.
"""

import math
from bisect import insort

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import ColaIndex, LsmIndex
from repro.index.secondary import ENTRY, SecondaryRef
from repro.simdisk import SimulatedDisk

FANOUT = 3


def sort_key(posting):
    value, t, block_id = posting
    return (1, 0.0, t, block_id) if math.isnan(value) else (0, value, t, block_id)


class Model:
    """Reference: sorted tuple list -> ENTRY.pack, merge on a schedule."""

    def __init__(self, kind: str, capacity: int):
        self.kind, self.capacity = kind, capacity
        self.memtable: list[tuple] = []
        self.device = bytearray()
        self.tiers: dict[int, list] = {}  # lsm: tier -> [(offset, postings)]
        self.levels: list = []  # cola: (offset, postings) or None

    def insert(self, posting) -> None:
        insort(self.memtable, posting, key=sort_key)  # equal keys: arrival order
        if len(self.memtable) == self.capacity:
            self.flush()

    def flush(self) -> None:
        carry, self.memtable = self.memtable, []
        if carry and self.kind == "lsm":
            self._add_run(carry, 0)
        elif carry:
            self._cascade(carry)

    def _add_run(self, postings, tier) -> None:
        self.tiers.setdefault(tier, []).append(self._write(postings))
        if len(self.tiers[tier]) >= FANOUT:
            merged = [p for _, run in self.tiers.pop(tier) for p in run]
            self._add_run(sorted(merged, key=sort_key), tier + 1)

    def _cascade(self, carry) -> None:
        for level in range(len(self.levels) + 1):
            if level == len(self.levels):
                self.levels.append(None)
            if self.levels[level] is None:
                self.levels[level] = self._write(carry)
                return
            carry = sorted(self.levels[level][1] + carry, key=sort_key)
            self.levels[level] = None

    def _write(self, postings):
        offset = len(self.device)
        for posting in postings:
            self.device += ENTRY.pack(*posting)
        return offset, postings

    def lookup(self, low, high):
        if self.kind == "lsm":
            runs = [run for tier in self.tiers.values() for run in tier]
        else:
            runs = [run for run in self.levels if run is not None]
        found = [p for p in self.memtable if low <= p[0] <= high]
        for _, postings in runs:
            found += [p for p in postings if low <= p[0] <= high]
        return [SecondaryRef(*p) for p in found]

    def layout(self):
        if self.kind == "lsm":
            return [(tier, [(offset, len(run)) for offset, run in runs])
                    for tier, runs in self.tiers.items()]
        return [run and (run[0], len(run[1])) for run in self.levels]


def make_index(kind: str, capacity: int):
    if kind == "lsm":
        return LsmIndex(SimulatedDisk(), memtable_capacity=capacity, fanout=FANOUT)
    return ColaIndex(SimulatedDisk(), base_capacity=capacity)


def layout_of(index):
    if isinstance(index, LsmIndex):
        return [(tier, [(run.offset, run.count) for run in runs])
                for tier, runs in index.tiers.items()]
    return [run and (run.offset, run.count) for run in index.levels]


def device_bytes(index) -> bytes:
    return index.device.read(0, index.device.size)


def check_equivalent(kind, capacity, runs, probes):
    """Feed *runs* three ways; compare after every run and at the end."""
    model = Model(kind, capacity)
    batched, single = make_index(kind, capacity), make_index(kind, capacity)
    for (block_id, rows), (low, high) in zip(runs, probes):
        for value, t in rows:
            model.insert((value, t, block_id))
            single.insert(value, t, block_id)
        batched.insert_run([v for v, _ in rows], [t for _, t in rows], block_id)
        # Between inserts the memtable is unsorted; answers must not care.
        compare(model, batched, single, low, high)
    model.flush(), batched.flush(), single.flush()
    for low, high in probes:
        compare(model, batched, single, low, high)
    assert device_bytes(batched) == device_bytes(single) == bytes(model.device)
    assert batched.posting_count == single.posting_count == sum(len(r) for _, r in runs)


def compare(model, batched, single, low, high):
    assert layout_of(batched) == layout_of(single) == model.layout()
    assert batched.lookup_range(low, high) == single.lookup_range(low, high) \
        == model.lookup(low, high)
    assert batched.lookup_exact(low) == single.lookup_exact(low) \
        == model.lookup(low, low)


VALUES = st.sampled_from(
    [-0.0, 0.0, 1.0, 1.5, 2.0, 7.25, -3.0, float("inf"), float("-inf"), float("nan")]
)
ROWS = st.tuples(VALUES, st.integers(0, 4))
PROBE = st.tuples(VALUES, VALUES).map(
    lambda p: p if math.isnan(p[0]) or math.isnan(p[1]) else (min(p), max(p))
)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["lsm", "cola"]),
    capacity=st.integers(2, 6),
    data=st.data(),
)
def test_random_runs_match_the_per_posting_model(kind, capacity, data):
    runs = data.draw(st.lists(
        st.tuples(st.integers(0, 3),
                  st.lists(ROWS, min_size=0, max_size=3 * capacity)),
        min_size=1, max_size=12,
    ))
    probes = data.draw(st.lists(PROBE, min_size=len(runs), max_size=len(runs)))
    check_equivalent(kind, capacity, runs, probes)


@pytest.mark.parametrize("kind", ["lsm", "cola"])
def test_run_boundaries_at_straddling_and_spanning_the_memtable(kind):
    capacity = 8
    lengths = [capacity, capacity - 3, 6, 2 * capacity + 5, 1, 3 * capacity, 0, 2]
    values = [-0.0, 0.0, 2.0, float("nan"), 1.0, 2.0, 0.0, -0.0, 5.0]
    runs, n = [], 0
    for block_id, length in enumerate(lengths):
        rows = [(values[(n + i) % len(values)], (n + i) % 3) for i in range(length)]
        runs.append((block_id % 2, rows))  # duplicate (value, t, block) postings
        n += length
    probes = [(0.0, 0.0), (-0.0, 2.0), (1.0, 5.0), (float("nan"), 1.0),
              (2.0, 2.0), (-1.0, 0.0), (5.0, 9.0), (0.0, float("inf"))]
    check_equivalent(kind, capacity, runs, probes)


@pytest.mark.parametrize("kind", ["lsm", "cola"])
def test_negative_zero_and_nan_on_device_and_in_lookups(kind):
    index = make_index(kind, 4)
    index.insert_run([0.0, float("nan"), -0.0, 3.0], [1, 2, 3, 4], 9)
    # Flushed as one run: zeros tie on value and order by t, NaN last.
    rows = [ENTRY.unpack_from(device_bytes(index), i * ENTRY.size) for i in range(4)]
    assert [(math.copysign(1, v), t) for v, t, _ in rows[:2]] == [(1.0, 1), (-1.0, 3)]
    assert rows[2][0] == 3.0 and math.isnan(rows[3][0])
    assert [r.t for r in index.lookup_exact(0.0)] == [1, 3]
    assert [r.t for r in index.lookup_exact(-0.0)] == [1, 3]
    assert index.lookup_exact(float("nan")) == []
    assert [r.t for r in index.lookup_range(-math.inf, math.inf)] == [1, 3, 4]
