"""Direct tests of the TimeSplit component."""

import pytest

from repro.core.config import ChronicleConfig
from repro.core.devices import DeviceProvider
from repro.core.split import REGULAR, TimeSplit
from repro.errors import StorageError
from repro.events import ColumnarEvents, Event, EventSchema

SCHEMA = EventSchema.of("x", "y")


def run(events):
    """*events* (non-decreasing timestamps) as one chronological run."""
    return ColumnarEvents.of(list(events), SCHEMA.arity)


def make_split(t_start=0, t_end=1000, secondary=None, **overrides):
    config_args = dict(
        lblock_size=512, macro_size=2048, memtable_capacity=64,
        secondary_indexes={"y": "lsm"} if secondary is None else secondary,
    )
    config_args.update(overrides)
    config = ChronicleConfig(**config_args)
    devices = DeviceProvider()
    split = TimeSplit(
        "s", 0, t_start, t_end, REGULAR, SCHEMA, config, devices,
        secondary_attributes=list(config.secondary_indexes),
    )
    return split, devices


def test_covers_boundaries():
    split, _ = make_split(t_start=100, t_end=200)
    assert split.covers(100)
    assert split.covers(199)
    assert not split.covers(200)  # exclusive end
    assert not split.covers(99)


def test_unbounded_split_covers_everything():
    split, _ = make_split(t_start=None, t_end=None)
    assert split.covers(-10**9) and split.covers(10**9)


def test_ingest_and_seal_records_statistics():
    split, _ = make_split()
    split.ingest_run(run(Event.of(i, float(i), float(i % 7)) for i in range(300)))
    split.seal()
    assert split.sealed
    assert split.summary.count == 300
    assert split.summary.t_min == 0 and split.summary.t_max == 299
    assert set(split.tc_scores) == {"x", "y"}
    # Sealing twice is a no-op.
    split.seal()


def test_seal_drains_queue_and_logs():
    split, _ = make_split(queue_capacity=64)
    split.ingest_run(run(Event.of(i, float(i), 0.0) for i in range(300)))
    split.ingest_run(run([Event.of(5, -1.0, 0.0)]))  # late -> queue + mirror
    assert split.manager.pending == 1
    split.seal()
    assert split.manager.pending == 0
    assert list(split.manager.wal.replay()) == []
    assert list(split.manager.mirror.replay()) == []


def test_search_secondary_includes_open_leaf_and_queue():
    split, _ = make_split(queue_capacity=64, lblock_spare=0.2)
    split.ingest_run(run(Event.of(i, float(i), float(i % 5)) for i in range(100)))
    # An event still in the open leaf and a queued late event both match.
    split.ingest_run(run([Event.of(2, 0.0, 3.0)]))  # late (flank boundary permitting)
    hits = split.search_secondary("y", 3.0, 3.0)
    expected_ts = [e.t for e in split.tree.time_travel(-1, 10**9)
                   if e.values[1] == 3.0]
    window = split.manager.queue.window(-1, 10**9)
    queued = [t for t, y in zip(window.timestamps, window.columns[1]) if y == 3.0]
    assert queued == [2]
    assert sorted(e.t for e in hits) == sorted(expected_ts + queued)


def test_search_secondary_requires_configured_index():
    split, _ = make_split(secondary={})
    with pytest.raises(StorageError):
        split.search_secondary("y", 1.0, 2.0)


def test_attach_secondary_requires_config():
    split, _ = make_split(secondary={})
    with pytest.raises(StorageError):
        split._attach_secondary("x")


def test_set_secondary_attributes_attaches_and_orders():
    split, _ = make_split(secondary={"x": "lsm", "y": "cola"})
    split.set_secondary_attributes(["x"])
    assert split.secondary_attributes == ["x"]
    split.set_secondary_attributes(["y", "x"])
    assert split.secondary_attributes == ["y", "x"]
    assert set(split.secondaries) == {"x", "y"}


def test_reopen_sealed_split(tmp_path):
    config = ChronicleConfig(lblock_size=512, macro_size=2048)
    devices = DeviceProvider(str(tmp_path / "db"))
    split = TimeSplit("s", 0, 0, None, REGULAR, SCHEMA, config, devices,
                      secondary_attributes=[])
    split.ingest_run(run(Event.of(i, float(i), 0.0) for i in range(200)))
    split.seal()
    devices.close()

    devices2 = DeviceProvider(str(tmp_path / "db"))
    reopened = TimeSplit("s", 0, 0, None, REGULAR, SCHEMA, config, devices2,
                         secondary_attributes=[], _open_existing=True)
    assert reopened.sealed
    assert reopened.tree.event_count == 200
    assert [e.t for e in reopened.tree.full_scan()] == list(range(200))
    assert reopened.tc_scores["x"] > 0.9
