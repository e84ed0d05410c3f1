"""Format-v2 store images keep opening through the flank walk.

``fixtures/v2`` holds the crashed stores of ``fixtures/v1`` written by a
checkout whose files were format v2 (``fixtures/make_v2_fixtures.py``
wrote them and the answers beside them): reserved flank slots name their
level and predecessor, and every C-block is deflated whole.  Each image
must recover through the flank walk and answer ``SELECT *``, an
aggregate and ``GROUP BY`` exactly as that checkout did.  Written to
after the reopen, its files stay v2 (no leaf C-block becomes column
aware), a split created afterwards is a v3 file, and it recovers again.
"""

import json
import os
import shutil

import pytest

from repro import ChronicleConfig, ChronicleDB, Event, obs
from repro.compression.zlibc import LEAF_MAGIC
from repro.storage.addressing import is_stored
from repro.storage.cblock import decode_cblock
from tests.storage.fixtures.make_v2_fixtures import IMAGES, QUERIES, answers

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "v2")


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


def _column_aware_leaves(layout) -> int:
    """How many stored C-blocks of *layout* are v3 column-aware leaves."""
    count = 0
    for block_id in range(layout.tlb.next_slot):
        if not is_stored(layout._resolve(block_id)):
            continue
        _, original_len, payload = decode_cblock(layout.read_framed(block_id))
        if original_len and payload[:4] == LEAF_MAGIC:
            count += 1
    return count


def _assert_v2(db, directory, indices):
    splits = {split.index: split for split in db.get_stream("s").splits}
    for index in indices:
        layout = splits[index].layout
        assert layout.format_version == 2
        assert _column_aware_leaves(layout) == 0
    db._write_manifest()
    with open(os.path.join(directory, "manifest.json")) as fh:
        assert json.load(fh)["format"] == "chronicledb-repro-v2"


@pytest.mark.parametrize("name", sorted(IMAGES))
def test_v2_image_answers_as_it_did(name, tmp_path):
    directory, config, expected = _load(name, tmp_path)
    db, counters = _open(directory, config)
    stream = db.get_stream("s")
    assert counters["recovery.flank_walk"] >= 1
    assert _normalized(answers(db)) == expected
    _assert_v2(db, directory, [split.index for split in stream.splits])
    db.devices.close()


@pytest.mark.parametrize("name", sorted(IMAGES))
def test_v2_image_written_after_reopen_stays_v2(name, tmp_path):
    directory, config, expected = _load(name, tmp_path)
    db, _ = _open(directory, config)
    stream = db.get_stream("s")
    v2_splits = [split.index for split in stream.splits]
    known = [(t, tuple(values)) for t, values in expected["select"]]
    top = known[-1][0]
    # Enough in-order events for several leaf and TLB flushes, then late
    # ones into already flushed leaves.
    more = [Event.of(top + 10 * (i + 1), float(i), float(i % 3)) for i in range(600)]
    more += [Event.of(top + 10 * i + 5, -float(i), 1.0) for i in range(1, 300, 37)]
    for start in range(0, len(more), 16):
        stream.append_batch(more[start : start + 16])
    stream.flush()
    new_splits = [s for s in stream.splits if s.index not in v2_splits]
    if config.time_split_interval is not None:
        assert new_splits
    for split in new_splits:
        assert split.layout.format_version == 3
        assert _column_aware_leaves(split.layout) >= 1
    db._write_manifest()
    db.devices.close()  # crash again

    db, counters = _open(directory, config)
    stream = db.get_stream("s")
    assert counters["recovery.flank_walk"] >= 1
    got = [(e.t, e.values) for e in db.execute(QUERIES["select"])]
    # The crash may take the open leaf's events, never an older one.
    lost = set(known) | {(e.t, e.values) for e in more}
    assert len(got) == len(set(got))
    assert set(got) <= lost
    assert set(known) <= set(got)
    assert [t for t, _ in got] == sorted(t for t, _ in got)
    _assert_v2(db, directory, v2_splits)
    db.devices.close()
