"""Shard placement: deterministic routing and order-preserving splits."""

import pytest

from repro.cluster import (
    Endpoint,
    HashPlacement,
    ShardMap,
    ShardSpec,
    TimeWindowPlacement,
)
from repro.errors import ClusterError
from repro.events import ColumnarEvents, Event


def make_map(num_shards, policy):
    shards = [
        ShardSpec(i, Endpoint("127.0.0.1", 9000 + i)) for i in range(num_shards)
    ]
    return ShardMap(shards, policy)


def test_hash_placement_is_deterministic_and_in_range():
    policy = HashPlacement()
    for stream in ("a", "sensors", "x" * 100):
        shard = policy.shard_of(stream, 0, 4)
        assert 0 <= shard < 4
        # Same shard regardless of timestamp and across instances.
        assert all(policy.shard_of(stream, t, 4) == shard for t in (1, 99))
        assert HashPlacement().shard_of(stream, 0, 4) == shard


def test_hash_placement_spreads_streams():
    policy = HashPlacement()
    shards = {policy.shard_of(f"stream-{i}", 0, 4) for i in range(64)}
    assert shards == {0, 1, 2, 3}


def test_time_window_placement_stripes():
    policy = TimeWindowPlacement(10)
    assert [policy.shard_of("s", t, 2) for t in (0, 9, 10, 19, 20)] == [
        0, 0, 1, 1, 0,
    ]


def test_time_window_placement_rejects_bad_window():
    with pytest.raises(ClusterError):
        TimeWindowPlacement(0)


def test_hash_map_routes_whole_stream_to_one_shard():
    shard_map = make_map(3, HashPlacement())
    specs = shard_map.shards_for_stream("s")
    assert len(specs) == 1
    by_shard = shard_map.partition_batch(
        "s", ColumnarEvents.of([Event.of(t, 1.0) for t in range(20)], 1)
    )
    assert list(by_shard) == [specs[0].shard_id]
    assert len(by_shard[specs[0].shard_id]) == 20


def test_time_window_partition_preserves_order_within_shard():
    shard_map = make_map(2, TimeWindowPlacement(5))
    events = [Event.of(t, float(t)) for t in range(30)]
    by_shard = shard_map.partition_batch("s", ColumnarEvents.of(events, 1))
    assert len(shard_map.shards_for_stream("s")) == 2
    assert sorted(by_shard) == [0, 1]
    recombined = []
    for shard_id, sub in by_shard.items():
        timestamps = [e.t for e in sub]
        assert timestamps == sorted(timestamps)  # fast path preserved
        recombined.extend(sub)
    assert sorted(e.t for e in recombined) == [e.t for e in events]


def test_sorted_partition_matches_per_event_loop():
    """The bisect fast path for sorted batches must agree exactly with
    the per-event split, including duplicate timestamps on a window
    boundary and shards revisited across stripe cycles."""
    import random

    rng = random.Random(7)
    policy = TimeWindowPlacement(7)
    shard_map = make_map(3, policy)
    timestamps = sorted(rng.randrange(0, 200) for _ in range(400))
    events = [Event.of(t, float(t)) for t in timestamps]
    want: dict[int, list] = {}
    for event in events:
        want.setdefault(policy.shard_of("s", event.t, 3), []).append(event)

    by_shard = shard_map.partition_batch("s", ColumnarEvents.of(events, 1))
    assert {k: list(v) for k, v in by_shard.items()} == want

    columnar = ColumnarEvents(
        list(timestamps), [[float(t) for t in timestamps]]
    )
    by_shard_columnar = shard_map.partition_batch("s", columnar)
    assert set(by_shard_columnar) == set(want)
    for shard_id, sub in by_shard_columnar.items():
        assert list(sub) == want[shard_id]


def test_unsorted_batch_falls_back_to_per_event_split():
    policy = TimeWindowPlacement(5)
    shard_map = make_map(2, policy)
    events = [Event.of(t, float(t)) for t in (9, 3, 14, 0, 7)]
    by_shard = shard_map.partition_batch("s", ColumnarEvents.of(events, 1))
    want: dict[int, list] = {}
    for event in events:
        want.setdefault(policy.shard_of("s", event.t, 2), []).append(event)
    assert {k: list(v) for k, v in by_shard.items()} == want


def test_hash_placement_keeps_columnar_batches_columnar():
    shard_map = make_map(3, HashPlacement())
    columnar = ColumnarEvents([1, 2, 3], [[1.0, 2.0, 3.0]])
    by_shard = shard_map.partition_batch("s", columnar)
    (sub,) = by_shard.values()
    assert isinstance(sub, ColumnarEvents)
    assert sub.timestamps == [1, 2, 3]


def test_shard_spec_quorum_and_promote():
    spec = ShardSpec(
        0,
        Endpoint("127.0.0.1", 9000),
        (Endpoint("127.0.0.1", 9001), Endpoint("127.0.0.1", 9002)),
    )
    assert spec.quorum == 2  # majority of 3
    spec.promote(Endpoint("127.0.0.1", 9002))
    assert spec.primary == Endpoint("127.0.0.1", 9002)
    assert spec.replicas == (Endpoint("127.0.0.1", 9001),)
    assert spec.quorum == 2  # majority of the shrunk group of 2

    with pytest.raises(ClusterError):
        spec.promote(Endpoint("127.0.0.1", 9999))


def test_map_promote_bumps_version():
    shard_map = make_map(1, HashPlacement())
    shard_map.shards[0].replicas = (Endpoint("127.0.0.1", 9100),)
    assert shard_map.version == 0
    shard_map.promote(0, Endpoint("127.0.0.1", 9100))
    assert shard_map.version == 1
