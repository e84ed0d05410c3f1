"""Store-level secondary-index behaviour: bytes, reopen, key types.

The device bytes of a `late_small`-shaped load (128-event batches, 5 %
late in bulks, 8 splits, an LSM secondary small enough to merge twice)
are pinned from the commit before postings became columnar — the run
core may change how a run is built, never what lands on the device.
"""

import hashlib
import os

import numpy as np

from repro import ChronicleConfig, ChronicleDB, EventSchema

N_EVENTS = 32_000
PINNED_SHA1 = {
    ".b.idx": "bc0fb92feb6ca75810109f2ab9a47e665cd04de0",
    # A format-v3 data file: column-aware leaf C-blocks, placeholders that
    # name level and predecessor, and sealed footers with tc in leaf-flush
    # order and no "trackers" key.
    ".cdb": "42081440c676f3b7b58af167ce7f1dd6810651b5",
}


def config(kind="lsm"):
    return ChronicleConfig(
        secondary_indexes={"b": kind},
        memtable_capacity=256,
        time_split_interval=10 * -(-(N_EVENTS + 1) // 8),
    )


def late_small_load(directory, n=N_EVENTS, seed=20, kind="lsm"):
    """Ingest *n* events the way the `late_small` workload arrives."""
    rng = np.random.default_rng(seed)
    t = np.arange(1, n + 1, dtype=np.int64) * 10
    cols = [np.floor(rng.random(n) * 1000) / 10 for _ in range(4)]
    order = []
    for start in range(0, n, 2_000):
        window = np.arange(start, min(n, start + 2_000))
        late = rng.random(len(window)) < 0.05
        order += window[~late].tolist() + window[late].tolist()
    order = np.array(order)
    db = ChronicleDB(directory, config(kind))
    stream = db.create_stream("s", EventSchema.of("a", "b", "c", "d"))
    for i in range(0, n, 128):
        pick = order[i : i + 128]
        stream.append_columns(t[pick].tolist(), [c[pick].tolist() for c in cols])
    return db, stream


def index_files(directory, suffix):
    folder = os.path.join(directory, "s")
    return [os.path.join(folder, name) for name in sorted(os.listdir(folder))
            if name.endswith(suffix)]


def sha1_of(paths) -> str:
    digest = hashlib.sha1()
    for path in paths:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def test_device_bytes_are_the_parent_commits(tmp_path):
    directory = str(tmp_path)
    db, stream = late_small_load(directory)
    merges = [s.secondaries["b"].merges_performed for s in stream.splits]
    assert max(merges) >= 5  # tier 0 -> 1 -> 2 happened somewhere
    db.close()
    for suffix, pinned in PINNED_SHA1.items():
        assert sha1_of(index_files(directory, suffix)) == pinned, suffix


def test_reopen_rebuilds_onto_an_emptied_index_device(tmp_path):
    """Every open used to append a full rebuilt copy behind the dead runs
    of the previous session (run metadata is memory-only)."""
    directory = str(tmp_path)
    db, stream = late_small_load(directory, n=8_000)
    probes = [(5.0, 5.0), (12.3, 12.3), (40.0, 41.5)]
    answers = [stream.search("b", low, high) for low, high in probes]
    assert all(answers)
    db.close()
    sizes = [os.path.getsize(p) for p in index_files(directory, ".b.idx")]

    for _ in range(2):
        db = ChronicleDB.open(directory, config())
        stream = db.get_stream("s")
        assert [stream.search("b", low, high) for low, high in probes] == answers
        db.close()
        assert [os.path.getsize(p) for p in index_files(directory, ".b.idx")] == sizes

    # Crash-style reopen (no close: open leaf and manifest state as a
    # SIGKILL leaves them) goes through the same rebuild.
    db = ChronicleDB.open(directory, config())
    stream = db.get_stream("s")
    stream.flush()
    db._write_manifest()
    del db, stream
    db = ChronicleDB.open(directory, config())
    assert [db.get_stream("s").search("b", low, high) for low, high in probes] == answers
    db.close()
    assert [os.path.getsize(p) for p in index_files(directory, ".b.idx")] == sizes


def test_search_treats_int_and_float_keys_alike(tmp_path):
    """Bloom membership hashed ``repr(key)``: ``search("b", 5)`` skipped
    every flushed run ``search("b", 5.0)`` read."""
    for kind in ("lsm", "cola"):
        db, stream = late_small_load(str(tmp_path / kind), n=8_000, kind=kind)
        by_float = stream.search("b", 5.0, 5.0)
        assert len(by_float) > 3
        assert stream.search("b", 5, 5) == by_float
        assert stream.search("b", -0.0) == stream.search("b", 0.0) == stream.search("b", 0)
        assert len(stream.search("b", 0)) > 3
        db.close()
