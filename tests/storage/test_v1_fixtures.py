"""Format-v1 store images keep opening, through the scan, forever.

``fixtures/v1`` holds small crashed stores written by a checkout whose
files were format v1 (``fixtures/make_v1_fixtures.py`` wrote them and the
answers beside them).  Each must recover through the header scan and
answer ``SELECT *``, an aggregate and ``GROUP BY`` exactly as that
checkout did; written to after the reopen, its files stay v1 (a split
created afterwards is a new, v2 file) and it recovers again.
"""

import json
import os
import shutil

import pytest

from repro import ChronicleConfig, ChronicleDB, Event, obs
from repro.errors import StorageError
from tests.storage.fixtures.make_v1_fixtures import IMAGES, QUERIES, answers

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "v1")


def _load(name, tmp_path):
    with open(os.path.join(FIXTURES, f"{name}.json")) as fh:
        expected = json.load(fh)
    directory = str(tmp_path / name)
    shutil.copytree(os.path.join(FIXTURES, name), directory)
    return directory, ChronicleConfig(**expected["config"]), expected["answers"]


def _open(directory, config):
    """Reopen; returns the store and how its trees were recovered."""
    obs.reset()
    obs.enable()
    try:
        db = ChronicleDB.open(directory, config)
        counters = obs.snapshot()["counters"]
    finally:
        obs.disable()
        obs.reset()
    return db, counters


def _normalized(result):
    return json.loads(json.dumps(result))


def _assert_v1(db, directory, indices):
    splits = {split.index: split for split in db.get_stream("s").splits}
    for index in indices:
        split = splits[index]
        assert split.layout.format_version == 1
        tlb = split.layout.tlb
        # v1 placeholders stay bare: no slot names a level or predecessor.
        assert all(
            tlb.lookup(block_id) >> 56 != 0xFE for block_id in range(tlb.next_slot)
        )
    db._write_manifest()
    with open(os.path.join(directory, "manifest.json")) as fh:
        assert json.load(fh)["format"] == "chronicledb-repro-v1"


@pytest.mark.parametrize("name", sorted(IMAGES))
def test_v1_image_answers_as_it_did(name, tmp_path):
    directory, config, expected = _load(name, tmp_path)
    db, counters = _open(directory, config)
    stream = db.get_stream("s")
    assert counters["recovery.flank_scan_fallback"] >= 1
    assert counters.get("recovery.flank_walk", 0) == 0
    assert _normalized(answers(db)) == expected
    _assert_v1(db, directory, [split.index for split in stream.splits])
    db.devices.close()


@pytest.mark.parametrize("name", sorted(IMAGES))
def test_v1_image_written_after_reopen_stays_v1(name, tmp_path):
    directory, config, expected = _load(name, tmp_path)
    db, _ = _open(directory, config)
    stream = db.get_stream("s")
    v1_splits = [split.index for split in stream.splits]
    known = [(t, tuple(values)) for t, values in expected["select"]]
    top = known[-1][0]
    # Enough in-order events for several leaf and TLB flushes, then late
    # ones into already flushed leaves.
    more = [Event.of(top + 10 * (i + 1), float(i), float(i % 3)) for i in range(600)]
    more += [Event.of(top + 10 * i + 5, -float(i), 1.0) for i in range(1, 300, 37)]
    for start in range(0, len(more), 16):
        stream.append_batch(more[start : start + 16])
    stream.flush()
    db._write_manifest()
    db.devices.close()  # crash again

    db, counters = _open(directory, config)
    stream = db.get_stream("s")
    new_splits = len(stream.splits) - len(v1_splits)
    assert counters.get("recovery.flank_walk", 0) <= new_splits
    got = [(e.t, e.values) for e in db.execute(QUERIES["select"])]
    # The crash may take the open leaf's events, never an older one.
    lost = set(known) | {(e.t, e.values) for e in more}
    assert len(got) == len(set(got))
    assert set(got) <= lost
    assert set(known) <= set(got)
    assert [t for t, _ in got] == sorted(t for t, _ in got)
    _assert_v1(db, directory, v1_splits)
    db.devices.close()


def test_unknown_format_is_refused(tmp_path):
    directory, config, _ = _load("in_order", tmp_path)
    path = os.path.join(directory, "manifest.json")
    with open(path) as fh:
        manifest = json.load(fh)
    manifest["format"] = "chronicledb-repro-v99"
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(StorageError):
        ChronicleDB.open(directory, config)


def test_unknown_superblock_format_is_refused():
    from repro.simdisk import SimulatedDisk
    from repro.storage import layout as layout_module
    from repro.storage.layout import ChronicleLayout

    disk = SimulatedDisk()
    original = layout_module.format_name
    layout_module.format_name = lambda version: "chronicledb-repro-v99"
    try:
        ChronicleLayout.create(disk, lblock_size=512, macro_size=2048)
    finally:
        layout_module.format_name = original
    with pytest.raises(StorageError):
        ChronicleLayout.open(disk)
