"""Secondary indexes across a reopen: run records, orphans, fallbacks.

A split's LSM or COLA index persists its run directory as CRC-framed
records in ``split-NNNNNN.<attr>.runs``.  A reopen loads the last
record when it holds the postings a rebuild from the recovered tree
would make, and rebuilds otherwise; either way the index must answer
like a rebuild does.
"""

import os
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ChronicleConfig, ChronicleDB, EventSchema, obs
from repro.errors import DiskCrashed
from repro.index.secondary import last_record
from repro.lifecycle import LifecyclePolicy, manager as lifecycle
from repro.ooo.manager import OutOfOrderManager
from repro.simdisk import SimulatedDisk

N_EVENTS = 12_000
SPLITS = 8
INTERVAL = 10 * -(-(N_EVENTS + 1) // SPLITS)
SCHEMA = EventSchema.of("a", "b", "c")
ATTRIBUTES = ("b", "c")


def config(**kw):
    return ChronicleConfig(
        secondary_indexes={"b": "lsm", "c": "cola"},
        memtable_capacity=128,
        time_split_interval=INTERVAL,
        **kw,
    )


def late_small_columns(n=N_EVENTS, seed=3):
    """Timestamps and columns in `late_small` arrival order: 128-event
    batches, 5 % of every 1 000 events withheld to the window's end."""
    rng = np.random.default_rng(seed)
    t = np.arange(1, n + 1, dtype=np.int64) * 10
    cols = [np.floor(rng.random(n) * 200) / 4 for _ in range(3)]
    order = []
    for start in range(0, n, 1_000):
        window = np.arange(start, min(n, start + 1_000))
        late = rng.random(len(window)) < 0.05
        order += window[~late].tolist() + window[late].tolist()
    order = np.array(order)
    return t[order], [c[order] for c in cols]


def ingest(stream, t, cols, start, stop, batch=128):
    for i in range(start, stop, batch):
        j = min(stop, i + batch)
        stream.append_columns(t[i:j].tolist(), [c[i:j].tolist() for c in cols])


def crash(db, stream):
    """What a SIGKILL leaves: the devices as written, the last manifest."""
    stream.flush()
    db.devices.close()


def reopen_counted(directory, cfg=None):
    obs.reset()
    obs.enable()
    try:
        db = ChronicleDB.open(directory, cfg or config())
        counters = obs.snapshot()["counters"]
    finally:
        obs.disable()
        obs.reset()
    return db, (counters.get("recovery.secondaries_loaded", 0),
                counters.get("recovery.secondaries_rebuilt", 0))


def postings(index):
    return sorted((r.value, r.t) for r in index.lookup_range(-np.inf, np.inf))


def snapshot(stream):
    """Every index's postings and some exact lookups, split by split."""
    return [
        (split.index, attribute, postings(split.secondaries[attribute]),
         [sorted((r.value, r.t) for r in split.secondaries[attribute].lookup_exact(v))
          for v in (0.0, 12.5, 33.25)])
        for split in stream.splits
        for attribute in ATTRIBUTES
    ]


def model_search(stream, attribute, low, high):
    position = stream.schema.index_of(attribute)
    return sorted(
        (e.t, e.values) for e in stream.time_travel(-2**62, 2**62)
        if low <= e.values[position] <= high
    )


def searched(stream, attribute, low, high):
    return sorted((e.t, e.values) for e in stream.search(attribute, low, high))


def forced_rebuild(directory):
    """Open a copy of the store with every run record removed."""
    folder = os.path.join(directory, "s")
    for name in os.listdir(folder) if os.path.isdir(folder) else ():
        if name.endswith(".runs"):
            os.remove(os.path.join(folder, name))
    db, (loaded, _) = reopen_counted(directory)
    assert loaded == 0
    return db


def last_record_of(path):
    disk = SimulatedDisk(path=path)
    try:
        return last_record(disk)
    finally:
        disk.close()


def copy_store(src, dst):
    shutil.copytree(src, dst)
    return str(dst)


def test_orphan_splits_come_back_with_their_indexes(tmp_path):
    """Splits created after the last manifest write were reopened with no
    secondary at all: searches fell back to scans and the active split
    posted nothing."""
    directory = str(tmp_path / "db")
    t, cols = late_small_columns()
    db = ChronicleDB(directory, config())
    stream = db.create_stream("s", SCHEMA)
    ingest(stream, t, cols, 0, N_EVENTS // 3)
    db.flush()  # the manifest names the splits so far
    named = len(stream.splits)
    ingest(stream, t, cols, N_EVENTS // 3, N_EVENTS)
    assert len(stream.splits) > named + 1
    crash(db, stream)

    db = ChronicleDB.open(directory, config())
    stream = db.get_stream("s")
    assert all(set(split.secondaries) == set(ATTRIBUTES) for split in stream.splits)
    for attribute, low, high in (("b", 12.5, 12.5), ("c", 10.0, 11.0)):
        assert searched(stream, attribute, low, high) == model_search(
            stream, attribute, low, high)
    active = stream.splits[-1]
    before = active.secondaries["b"].posting_count
    ingest(stream, np.arange(1, 400) + 10 * N_EVENTS, [np.ones(399)] * 3, 0, 399)
    assert active.secondaries["b"].posting_count > before
    db.close()


def test_a_crashed_store_rebuilds_only_the_unsealed_index(tmp_path):
    directory = str(tmp_path / "db")
    t, cols = late_small_columns()
    db = ChronicleDB(directory, ChronicleConfig(
        secondary_indexes={"b": "lsm"}, memtable_capacity=128,
        time_split_interval=INTERVAL,
    ))
    stream = db.create_stream("s", SCHEMA)
    ingest(stream, t, cols, 0, N_EVENTS)
    assert len(stream.splits) == SPLITS
    db._write_manifest()
    db.devices.close()  # SIGKILL: no flush, no seal of the active split

    db, counts = reopen_counted(directory, ChronicleConfig(
        secondary_indexes={"b": "lsm"}, memtable_capacity=128,
        time_split_interval=INTERVAL,
    ))
    assert counts == (SPLITS - 1, 1)
    db.devices.close()


def test_clean_reopen_loads_every_index_and_answers_like_a_rebuild(tmp_path):
    directory = str(tmp_path / "db")
    t, cols = late_small_columns()
    db = ChronicleDB(directory, config())
    stream = db.create_stream("s", SCHEMA)
    ingest(stream, t, cols, 0, N_EVENTS)
    db.close()
    twin = copy_store(directory, tmp_path / "twin")

    db, counts = reopen_counted(directory)
    assert counts == (len(ATTRIBUTES) * SPLITS, 0)
    rebuilt = forced_rebuild(twin)
    assert snapshot(db.get_stream("s")) == snapshot(rebuilt.get_stream("s"))
    # Loading cut nothing and appended nothing.
    idx = sorted(n for n in os.listdir(os.path.join(directory, "s")) if n.endswith(".idx"))
    assert [os.path.getsize(os.path.join(directory, "s", n)) for n in idx] == [
        os.path.getsize(os.path.join(twin, "s", n)) for n in idx]
    db.close()
    rebuilt.close()


def _sealed_store(tmp_path):
    directory = str(tmp_path / "db")
    t, cols = late_small_columns()
    db = ChronicleDB(directory, config())
    stream = db.create_stream("s", SCHEMA)
    ingest(stream, t, cols, 0, N_EVENTS)
    return directory, db, stream


def _runs_path(directory, split, attribute="b"):
    return os.path.join(directory, "s", f"split-{split:06d}.{attribute}.runs")


def _check_fallback(tmp_path, directory, reloads=True):
    twin = copy_store(directory, tmp_path / "twin")
    db, (_, rebuilt) = reopen_counted(directory)
    assert rebuilt == 1 if reloads else rebuilt >= 1
    stream = db.get_stream("s")
    rebuilt_db = forced_rebuild(twin)
    assert snapshot(stream) == snapshot(rebuilt_db.get_stream("s"))
    rebuilt_db.close()
    for attribute, low, high in (("b", 12.5, 12.5), ("c", 0.0, 3.0)):
        assert searched(stream, attribute, low, high) == model_search(
            stream, attribute, low, high)
    db.close()
    if reloads:
        # The rebuilt sealed split wrote a fresh record: the next open
        # loads it.
        db, (_, rebuilt) = reopen_counted(directory)
        assert rebuilt == 0
        db.close()


def test_a_torn_record_falls_back_to_the_rebuild(tmp_path):
    directory, db, _ = _sealed_store(tmp_path)
    db.close()
    path = _runs_path(directory, 1)
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) - 3)
    _check_fallback(tmp_path, directory)


def test_a_stale_record_falls_back_to_the_rebuild(tmp_path):
    directory, db, stream = _sealed_store(tmp_path)
    path = _runs_path(directory, 1)
    with open(path, "rb") as fh:
        stale = fh.read()
    # More late events into sealed split 1 than its queue holds: the
    # queue flush posts them, and the split appends a record.
    manager = stream.splits[1].manager
    flushes = manager.queue_flushes
    start = stream.splits[1].t_start
    late = np.arange(start + 3, start + 3 + 10 * 1100, 10)
    stream.append_columns(late.tolist(), [np.full(len(late), 12.5).tolist()] * 3)
    assert manager.queue_flushes == flushes + 1
    db.close()
    assert os.path.getsize(path) > len(stale)
    with open(path, "wb") as fh:
        fh.write(stale)
    _check_fallback(tmp_path, directory)


def test_a_stale_record_behind_an_outdated_commit_footer_is_refused(tmp_path):
    """``flush`` writes the late postings' leaves in place, behind the
    sealed split's commit footer: the reopened tree takes its event
    count from the footer and replay skips the events its leaves
    already hold, so the stale record's posting count matches.  Its LSN
    does not."""
    directory, db, stream = _sealed_store(tmp_path)
    path = _runs_path(directory, 1)
    with open(path, "rb") as fh:
        stale = fh.read()
    start = stream.splits[1].t_start
    late = np.arange(start + 3, start + 3 + 370 * 40, 370)  # one per leaf
    stream.append_columns(late.tolist(), [np.full(len(late), 12.5).tolist()] * 3)
    stream.flush()
    db.close()
    with open(path, "wb") as fh:
        fh.write(stale)
    _check_fallback(tmp_path, directory, reloads=False)


def test_a_crash_after_the_lifecycle_drain_keeps_the_late_postings(
        tmp_path, monkeypatch):
    """Before it migrates a sealed split, the lifecycle drains the split's
    late queue: a queue flush, then a checkpoint that writes the leaves
    in place and clears the WAL.  A crash before the migration commits
    leaves the split hot, behind its seal-time commit footer and with no
    WAL: the record of the seal matches that tree, so the drained
    postings must be in a later record by the time the WAL goes."""
    directory, db, stream = _sealed_store(tmp_path)
    target = stream.splits[0]
    late = np.arange(target.t_start + 3, target.tree.flank_boundary_t, 370)
    stream.append_columns(late.tolist(), [np.full(len(late), 12.5).tolist()] * 3)
    assert target.manager.pending >= len(late) > 30  # all queued
    db._write_manifest()

    def crash_before_commit(stream, split, log, policy):
        db.devices.close()  # SIGKILL: the drained split stays hot
        raise DiskCrashed("crash before warm_commit")

    monkeypatch.setattr(lifecycle, "migrate_split_to_warm", crash_before_commit)
    ticker = lifecycle.LifecycleManager(
        stream, LifecyclePolicy(hot_to_warm_after=1, max_jobs_per_tick=1))
    with pytest.raises(DiskCrashed):
        ticker.tick()
    assert target.manager.pending == 0 and target.manager.wal.size_bytes == 0

    twin = copy_store(directory, tmp_path / "twin")
    db, _ = reopen_counted(directory)
    stream = db.get_stream("s")
    rebuilt = forced_rebuild(twin)
    assert snapshot(stream) == snapshot(rebuilt.get_stream("s"))
    rebuilt.close()
    hits = searched(stream, "b", 12.5, 12.5)
    assert hits == model_search(stream, "b", 12.5, 12.5)
    assert set(late.tolist()) <= {t for t, _ in hits}
    db.close()


def test_a_crash_after_a_checkpoint_inside_an_ingest_call_keeps_the_late_postings(
        tmp_path, monkeypatch):
    """One ingest call carries more late events into a sealed split than a
    checkpoint interval: its queue flushes reach a checkpoint, which
    clears the WAL before the call returns.  A crash right after it must
    not leave the seal's record as the last word."""
    directory = str(tmp_path / "db")
    t, cols = late_small_columns()
    order = np.argsort(t)  # in order: the bulk is the first late posting
    db = ChronicleDB(directory, config(queue_capacity=8, checkpoint_interval=32))
    stream = db.create_stream("s", SCHEMA)
    ingest(stream, t[order], [c[order] for c in cols], 0, N_EVENTS)
    db._write_manifest()
    target = stream.splits[0]
    assert target.sealed and not target.manager.pending
    checkpoints = target.manager.checkpoints
    late = np.arange(target.t_start + 3, target.tree.flank_boundary_t, 370)
    assert len(late) > 32
    checkpoint = OutOfOrderManager.checkpoint

    def crash_after(manager):
        checkpoint(manager)
        if manager is target.manager:
            db.devices.close()
            raise DiskCrashed("crash after the checkpoint")

    monkeypatch.setattr(OutOfOrderManager, "checkpoint", crash_after)
    with pytest.raises(DiskCrashed):
        stream.append_columns(late.tolist(),
                              [np.full(len(late), 12.5).tolist()] * 3)
    assert target.manager.checkpoints == checkpoints + 1
    monkeypatch.undo()

    twin = copy_store(directory, tmp_path / "twin")
    db, _ = reopen_counted(directory)
    stream = db.get_stream("s")
    rebuilt = forced_rebuild(twin)
    assert snapshot(stream) == snapshot(rebuilt.get_stream("s"))
    rebuilt.close()
    assert searched(stream, "b", 12.5, 12.5) == model_search(stream, "b", 12.5, 12.5)
    db.close()


def test_forced_rebuilds_do_not_grow_the_index_devices(tmp_path):
    """With the run records removed before each open, every open rebuilds
    every index: onto an emptied `.idx`, never behind the last one's
    runs."""
    directory, db, _ = _sealed_store(tmp_path)
    db.close()
    folder = os.path.join(directory, "s")

    def idx_sizes():
        return {n: os.path.getsize(os.path.join(folder, n))
                for n in os.listdir(folder) if n.endswith(".idx")}

    sizes = []
    for _ in range(2):
        db = forced_rebuild(directory)
        db.close()
        sizes.append(idx_sizes())
    assert len(sizes[0]) == len(ATTRIBUTES) * SPLITS
    assert sizes[0] == sizes[1]


def test_a_foreign_index_device_falls_back_to_the_rebuild(tmp_path):
    """A record whose `.idx` was since rewritten by a build that does not
    know run records (one that rebuilds every index on open): its runs
    no longer read back as recorded."""
    directory, db, stream = _sealed_store(tmp_path)
    db.close()
    db = ChronicleDB.open(directory, config())
    stream = db.get_stream("s")
    split = stream.splits[2]
    split.secondaries.clear()
    split.secondary_attributes.clear()
    runs_path = _runs_path(directory, 2)
    idx_path = runs_path[: -len(".runs")] + ".idx"
    with open(runs_path, "rb") as fh:
        runs = fh.read()
    with open(idx_path, "rb") as fh:
        arrival_order = fh.read()
    stream.rebuild_secondary("b", 2)  # leaf-chain order, not arrival order
    db.devices.close()
    with open(idx_path, "rb") as fh:
        assert fh.read() != arrival_order
    with open(runs_path, "wb") as fh:
        fh.write(runs)
    assert last_record_of(runs_path)
    _check_fallback(tmp_path, directory)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(
    st.tuples(st.sampled_from(["ingest", "late", "flush", "close", "crash"]),
              st.integers(0, 2**31)),
    min_size=3, max_size=9,
))
def test_load_answers_like_a_rebuild(tmp_path_factory, steps):
    """Random interleavings of ingest (sealing splits as time moves on),
    late events into sealed splits, flushes, clean closes and crashes:
    after every reopen the indexes answer exactly as a rebuild of the
    same store does."""
    base = tmp_path_factory.mktemp("run")
    directory = str(base / "db")
    t, cols = late_small_columns(6_000)
    db = ChronicleDB(directory, config())
    stream = db.create_stream("s", SCHEMA)
    at, reopens = 0, 0
    for op, seed in steps:
        rng = np.random.default_rng(seed)
        if op == "ingest" and at < len(t):
            stop = min(len(t), at + int(rng.integers(300, 2_500)))
            ingest(stream, t, cols, at, stop)
            at = stop
        elif op == "late" and len(stream.splits) > 1:
            sealed = [s for s in stream.splits[:-1] if s.t_start is not None]
            if not sealed:
                continue
            target = sealed[int(rng.integers(len(sealed)))]
            n = int(rng.integers(1, 200))
            late = target.t_start + 5 + 10 * rng.integers(0, INTERVAL // 10 - 1, n)
            late.sort()
            values = (np.floor(rng.random((3, n)) * 200) / 4).tolist()
            stream.append_columns(late.tolist(), values)
        elif op == "flush":
            db.flush()
        elif op in ("close", "crash"):
            if op == "close":
                db.close()
            else:
                db._write_manifest()
                crash(db, stream)
            reopens += 1
            twin = copy_store(directory, base / f"twin{reopens}")
            db = ChronicleDB.open(directory, config())
            stream = db.get_stream("s")
            rebuilt = forced_rebuild(twin)
            assert snapshot(stream) == snapshot(rebuilt.get_stream("s"))
            rebuilt.devices.close()
    db.close()
