"""``partition_batch``: the sorted fast path must equal the per-event loop.

The PR-9 regression class: the old fast path hard-coded
``(t // window) % num_shards`` instead of delegating to the policy, so
any subclassed windowed policy silently routed differently depending on
whether the input batch happened to be sorted.  The property test pins
fast path ≡ slow path for built-in and subclassed policies, sorted and
unsorted inputs, window-boundary timestamps (including equal-timestamp
runs), and maps carrying live-split range assignments.  The same maps
pin ``owned_intervals`` — the walk over the same constant-ownership
pieces — to ``owner_of`` at every timestamp of a range.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    Endpoint,
    HashPlacement,
    RangeAssignment,
    ShardMap,
    ShardSpec,
    TimeWindowPlacement,
)
from repro.events import ColumnarEvents, Event


class ReversedWindowPlacement(TimeWindowPlacement):
    """A subclassed windowed policy whose striping differs from the
    built-in formula — routes identically on both paths only if the
    fast path delegates to ``shard_of``."""

    def shard_of(self, stream: str, t: int, num_shards: int) -> int:
        return (num_shards - 1) - (t // self.window) % num_shards


def make_map(num_shards, policy):
    shards = [
        ShardSpec(i, Endpoint("127.0.0.1", 9000 + i))
        for i in range(num_shards)
    ]
    return ShardMap(shards, policy)


def slow_split(shard_map, stream, events):
    """The per-event oracle: owner_of, one event at a time, preserving
    input order per shard."""
    out = {}
    for event in events:
        out.setdefault(shard_map.owner_of(stream, event.t), []).append(event)
    return out


def as_rows(split):
    return {
        shard: [(e.t, tuple(e.values)) for e in batch]
        for shard, batch in split.items()
    }


def test_sorted_fast_path_delegates_to_subclassed_policy():
    """Regression: sorted batches must route by the policy's
    ``shard_of``, not the hard-coded built-in stripe."""
    shard_map = make_map(3, ReversedWindowPlacement(10))
    events = [Event.of(t, float(t)) for t in range(35)]  # sorted: fast path
    got = shard_map.partition_batch("s", ColumnarEvents.of(events, 1))
    assert as_rows(got) == as_rows(slow_split(shard_map, "s", events))
    # The subclass reverses the stripe, so the old formula's answer is
    # genuinely different — this test fails against the old fast path.
    old_formula = {}
    for event in events:
        old_formula.setdefault((event.t // 10) % 3, []).append(event)
    assert as_rows(got) != as_rows(old_formula)


policies = st.one_of(
    st.builds(TimeWindowPlacement, st.integers(1, 7)),
    st.builds(ReversedWindowPlacement, st.integers(1, 7)),
    st.builds(HashPlacement),
)


@st.composite
def maps(draw):
    policy = draw(policies)
    num_shards = draw(st.integers(1, 5))
    shard_map = make_map(num_shards, policy)
    if num_shards > 1:
        for _ in range(draw(st.integers(0, 3))):
            source = draw(st.integers(0, num_shards - 1))
            target = draw(st.integers(0, num_shards - 1))
            if target == source:
                target = (source + 1) % num_shards
            t_lo = draw(st.none() | st.integers(-40, 40))
            t_hi = draw(st.none() | st.integers(-40, 40))
            if t_lo is not None and t_hi is not None and t_lo >= t_hi:
                t_hi = None
            shard_map.apply_assignment(
                RangeAssignment(
                    target,
                    source,
                    stream=draw(st.sampled_from([None, "s"])),
                    t_lo=t_lo,
                    t_hi=t_hi,
                )
            )
    return shard_map


# Timestamps drawn from a small range so window boundaries and
# equal-timestamp runs occur constantly.
timestamp_lists = st.lists(st.integers(-45, 45), max_size=60)


@settings(deadline=None, max_examples=120)
@given(shard_map=maps(), timestamps=timestamp_lists, sort=st.booleans())
def test_partition_batch_matches_per_event_loop(shard_map, timestamps, sort):
    if sort:
        timestamps = sorted(timestamps)
    events = [Event.of(t, float(t % 5), float(-t)) for t in timestamps]
    expected = as_rows(slow_split(shard_map, "s", events))
    batch = ColumnarEvents.of(events, 2)
    assert as_rows(shard_map.partition_batch("s", batch)) == expected
    columnar = ColumnarEvents(
        list(timestamps),
        [[float(t % 5) for t in timestamps], [float(-t) for t in timestamps]],
    )
    assert as_rows(shard_map.partition_batch("s", columnar)) == expected


@settings(deadline=None, max_examples=60)
@given(shard_map=maps(), timestamps=timestamp_lists)
def test_partition_batch_preserves_order_within_shards(shard_map, timestamps):
    timestamps = sorted(timestamps)
    events = [Event.of(t, float(t), 0.0) for t in timestamps]
    split = shard_map.partition_batch("s", ColumnarEvents.of(events, 2))
    for batch in split.values():
        ts = [e.t for e in batch]
        assert ts == sorted(ts)


@settings(deadline=None, max_examples=120)
@given(
    shard_map=maps(),
    bounds=st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
    shard=st.integers(0, 4),
)
def test_owned_intervals_match_owner_of(shard_map, bounds, shard):
    t_lo, t_hi = bounds
    got = list(shard_map.owned_intervals("s", shard, t_lo, t_hi))
    covered = [t for lo, hi in got for t in range(lo, hi + 1)]
    assert covered == [
        t for t in range(t_lo, t_hi + 1) if shard_map.owner_of("s", t) == shard
    ]
    # Sorted, and merged: no two slices touch.
    assert all(a[1] + 1 < b[0] for a, b in zip(got, got[1:]))
