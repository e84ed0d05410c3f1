"""Device bytes of a late-heavy load while the logs are still full.

A `late_small`-shaped load (128-event batches, 5 % late in bulks, 8
splits, an LSM secondary) with a small out-of-order queue and no
checkpoint: every split has flushed its queue a few times, so the WAL
holds the flushed late events and the mirror log the still-queued
ones.  The store is *not* closed — closing drains the queue and
truncates both logs — and the SHA-1 of every data, secondary, WAL and
mirror device is pinned, so any change to how late events are queued,
logged or inserted must leave the devices bit for bit as they were.
"""

import hashlib

import numpy as np

from repro import ChronicleConfig, ChronicleDB, EventSchema

N_EVENTS = 32_000
PINNED_SHA1 = {
    # A format-v3 data file: column-aware leaf C-blocks, placeholders that
    # name level and predecessor, and sealed footers with tc in leaf-flush
    # order and no "trackers" key.
    ".cdb": "244afdaf9b9bd0e8f87ec8e58d1b491440c91dc0",
    ".b.idx": "4c52ce9b6bf19edb9ded7bed82536176bf7060fd",
    ".wal": "373dbd559f3f4d6989d618b379cc93f2f504058c",
    ".mirror": "659f37caf3d52f6c8d69681f80cb836eb99d546b",
}


def late_load(n=N_EVENTS, seed=20):
    rng = np.random.default_rng(seed)
    t = np.arange(1, n + 1, dtype=np.int64) * 10
    cols = [np.floor(rng.random(n) * 1000) / 10 for _ in range(4)]
    order = []
    for start in range(0, n, 2_000):
        window = np.arange(start, min(n, start + 2_000))
        late = rng.random(len(window)) < 0.05
        order += window[~late].tolist() + window[late].tolist()
    order = np.array(order)
    db = ChronicleDB(config=ChronicleConfig(
        secondary_indexes={"b": "lsm"},
        memtable_capacity=256,
        time_split_interval=10 * -(-(n + 1) // 8),
        queue_capacity=64,
        checkpoint_interval=10**6,
    ))
    stream = db.create_stream("s", EventSchema.of("a", "b", "c", "d"))
    for i in range(0, n, 128):
        pick = order[i : i + 128]
        stream.append_columns(t[pick].tolist(), [c[pick].tolist() for c in cols])
    return db, stream


def test_late_load_devices_with_full_logs():
    db, stream = late_load()
    assert len(stream.splits) == 8
    assert all(2 <= s.manager.queue_flushes <= 4 for s in stream.splits)
    last = stream.splits[7].manager
    assert (last.wal.size_bytes, last.mirror.size_bytes) == (7_168, 2_800)
    digests = {}
    for suffix in PINNED_SHA1:
        digest = hashlib.sha1()
        for key in sorted(db.devices.devices):
            if key.endswith(suffix):
                device = db.devices.devices[key]
                digest.update(device.read(0, device.size))
        digests[suffix] = digest.hexdigest()
    assert digests == PINNED_SHA1
