"""The warm copy's check: ``verify_copy`` refuses any drift.

A warm migration verifies its copy against the hot split before the
commit record; a target tree missing one row or holding one altered
value must raise :class:`StorageError`, so the swap never happens.
"""

import pytest

from repro.core.config import ChronicleConfig
from repro.core.devices import DeviceProvider
from repro.core.stream import EventStream
from repro.errors import StorageError
from repro.events import ColumnarEvents, Event, EventSchema
from repro.index import TabTree
from repro.lifecycle.warm import verify_copy
from repro.simdisk import SimulatedDisk
from repro.storage import ChronicleLayout

SCHEMA = EventSchema.of("x", "y")
CONFIG = ChronicleConfig(lblock_size=256, macro_size=512,
                         time_split_interval=100)


def _tree_of(events):
    layout = ChronicleLayout.create(
        SimulatedDisk(), lblock_size=256, macro_size=512, compressor="zlib"
    )
    tree = TabTree(layout, SCHEMA)
    tree.append_run(ColumnarEvents.of(events, SCHEMA.arity))
    return tree


@pytest.fixture
def source():
    """A sealed hot split's tree and its events; an exact copy passes."""
    stream = EventStream("s", SCHEMA, CONFIG, DeviceProvider())
    for i in range(260):
        stream.append(Event.of(i, float(i), float(i % 7)))
    tree = stream.splits[0].tree
    events = list(tree.full_scan())
    assert len(events) == 100
    verify_copy(tree, _tree_of(events))
    return tree, events


def test_verify_copy_refuses_a_copy_missing_one_row(source):
    tree, events = source
    missing = events[:40] + events[41:]
    with pytest.raises(StorageError, match="count mismatch"):
        verify_copy(tree, _tree_of(missing))
    # The same count, one row short and another doubled.
    with pytest.raises(StorageError, match="diverges at event 40"):
        verify_copy(tree, _tree_of(missing + events[-1:]))


def test_verify_copy_refuses_a_copy_with_one_altered_value(source):
    tree, events = source
    x, y = events[40].values
    altered = [*events[:40], Event.of(events[40].t, x, y + 0.5), *events[41:]]
    with pytest.raises(StorageError, match="diverges at event 40"):
        verify_copy(tree, _tree_of(altered))
