"""Count-based guard (no wall clock): no per-event objects on ingest.

A late-heavy load arrives through the two batch lanes
(``append_columns`` and ``append_batch`` of a ``ColumnarEvents``).  From
the API boundary to the devices nothing becomes an ``Event``: late
segments are queued as column slices, mirror-logged with one write per
queued chunk, and each queue flush is one WAL write of the drained batch.
An in-order wire batch is not even unpacked value by value: it decodes
into typed arrays that the open leaf extends and serializes whole.
Ingestion computes no statistic per event, nor one per leaf: one kernel
call per run that fills a leaf (one per in-order batch), one per leaf
flushed outside such a run, one per seal for the open leaf, and one tc
fold for each of those.  Nor does it choose a
leaf encoding per block: each split's column trial runs on its first
leaf and then once per ``TRIAL_INTERVAL`` leaves it compresses.
"""

import dataclasses
import math
import struct
import types
from array import array

import numpy as np

import repro.events.serializer as serializer
import repro.index.entry as entry_module
from repro import ChronicleConfig, ChronicleDB, EventSchema
from repro.compression.zlibc import LEAF_MAGIC, TRIAL_INTERVAL, ZlibCompressor
from repro.core.split import TimeSplit
from repro.events import ColumnarEvents, Event, Field, FieldKind
from repro.index.correlation import RunningCorrelation, SplitCorrelation
from repro.index.entry import RunStatistics
from repro.index.tab_tree import TabTree
from repro.net import frames
from repro.ooo.queue import SortedQueue

N_EVENTS = 20_000
CONFIG = ChronicleConfig(
    secondary_indexes={"b": "lsm"},
    memtable_capacity=256,
    time_split_interval=10 * N_EVENTS // 2,
    queue_capacity=64,
    checkpoint_interval=256,
)


def count_calls(monkeypatch, owner, name, when=None):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        if when is None or when(*args, **kwargs):
            calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def device_writes(db, suffix):
    return sum(
        device.stats.seq_writes + device.stats.random_writes
        for key, device in db.devices.devices.items()
        if key.endswith(suffix)
    )


def flushes_by_run(monkeypatch):
    """The RunStatistics each leaf flush takes its statistics from (None:
    the flush computes its own); kept alive, so ids stay distinct."""
    runs = []
    original = TabTree._flush_leaf

    def flush(tree, run=None, index=0):
        runs.append(run)
        return original(tree, run, index)

    monkeypatch.setattr(TabTree, "_flush_leaf", flush)
    return runs


def late_heavy_load(seed):
    """``(t, a, b, order)``: arrival order with 5 % late in bulks."""
    rng = np.random.default_rng(seed)
    t = np.arange(1, N_EVENTS + 1, dtype=np.int64) * 10
    a, b = (np.floor(rng.random(N_EVENTS) * 1000) / 10 for _ in range(2))
    order = []
    for start in range(0, N_EVENTS, 2_000):
        window = np.arange(start, start + 2_000)
        late = rng.random(len(window)) < 0.05
        order += window[~late].tolist() + window[late].tolist()
    return t, a, b, order


def test_late_heavy_ingest_builds_no_events(monkeypatch):
    t, a, b, order = late_heavy_load(28)
    db = ChronicleDB(config=CONFIG)
    stream = db.create_stream("s", EventSchema.of("a", "b"))

    # One event at a time, or a batch of them (the one column->Event
    # constructor, which builds rows without calling Event itself).
    events = count_calls(monkeypatch, Event, "__new__")
    event_batches = count_calls(monkeypatch, Event, "from_columns")
    iterations = count_calls(monkeypatch, ColumnarEvents, "__iter__")
    row_lookups = count_calls(
        monkeypatch, ColumnarEvents, "__getitem__",
        when=lambda batch, index: not isinstance(index, slice),
    )
    chunks_queued = count_calls(monkeypatch, SortedQueue, "add_run")
    kernel = count_calls(monkeypatch, RunStatistics, "of")
    leaf_flushes = flushes_by_run(monkeypatch)
    seals = count_calls(monkeypatch, TimeSplit, "seal",
                        when=lambda split: not split.sealed)
    trackers = [
        count_calls(monkeypatch, RunningCorrelation, name)
        for name in ("__init__", "add")
    ]
    for k, i in enumerate(range(0, N_EVENTS, 128)):
        pick = order[i : i + 128]
        columns = [a[pick].tolist(), b[pick].tolist()]
        if k % 2:
            stream.append_columns(t[pick].tolist(), columns)
        else:
            stream.append_batch(ColumnarEvents(t[pick].tolist(), columns))

    managers = [split.manager for split in stream.splits]
    assert stream.appended == N_EVENTS
    assert sum(m.queued_inserts for m in managers) > 500
    flushes = sum(m.queue_flushes for m in managers)
    assert flushes >= 3
    assert sum(m.checkpoints for m in managers) >= 1
    assert len(events) == len(event_batches) == 0
    assert len(iterations) == len(row_lookups) == 0
    assert device_writes(db, ".mirror") == len(chunks_queued)
    assert device_writes(db, ".wal") == flushes
    assert len(seals) >= 1 and len(leaf_flushes) >= 50
    # One kernel call per run that fills a leaf, per leaf flushed on its
    # own (no run's statistics at hand), and per seal.
    runs = {id(run) for run in leaf_flushes if run is not None}
    alone = [run for run in leaf_flushes if run is None]
    assert len(kernel) == len(runs) + len(alone) + len(seals)
    assert [len(calls) for calls in trackers] == [0, 0]


def test_wire_batches_reach_the_leaf_without_per_value_packs(monkeypatch):
    schema = EventSchema([Field("x"), Field("n", FieldKind.I64)])
    codec = serializer.PaxCodec(schema)
    schema_bytes = frames.schema_bytes_of(schema)
    payloads = [
        frames.encode_batch_payload("s", schema_bytes, codec, ColumnarEvents(
            list(range(k * 256, (k + 1) * 256)),
            [[t / 8 for t in range(k * 256, (k + 1) * 256)],
             list(range(k * 256, (k + 1) * 256))],
        ))
        for k in range(20)
    ]
    db = ChronicleDB(config=ChronicleConfig(lblock_size=4096))
    stream = db.create_stream("s", schema)
    fake = types.SimpleNamespace(**vars(struct))
    packs = count_calls(monkeypatch, fake, "pack")
    unpacks = count_calls(monkeypatch, fake, "unpack_from")
    monkeypatch.setattr(serializer, "struct", fake)
    for payload in payloads:
        _, _, timestamps, columns = frames.decode_batch_payload(payload)
        stream.append_columns(timestamps, columns)

    tree = stream.splits[0].tree
    assert tree.event_count - tree.leaf.count >= 5 * tree.leaf_write_capacity
    assert len(packs) == len(unpacks) == 0
    leaf = tree.leaf
    assert [(type(c), c.typecode) for c in (leaf.timestamps, *leaf.columns)] == [
        (array, "q"), (array, "d"), (array, "q")
    ]
    db.close()


def test_in_order_wire_batches_take_one_kernel_call_and_one_fold_each(monkeypatch):
    """20 in-order 1 024-row wire batches of the benchmark's shape fill
    about 112 leaves: 20 kernel calls and 20 tc folds, one per batch."""
    schema = EventSchema.of("a", "b", "c", "d")
    codec = serializer.PaxCodec(schema)
    schema_bytes = frames.schema_bytes_of(schema)
    rng = np.random.default_rng(41)
    db = ChronicleDB(config=ChronicleConfig())
    stream = db.create_stream("s", schema)
    kernel = count_calls(monkeypatch, RunStatistics, "of")
    folds = count_calls(monkeypatch, SplitCorrelation, "fold")
    leaf_flushes = count_calls(monkeypatch, TabTree, "_flush_leaf")
    for k in range(20):
        t = (np.arange(k * 1024, (k + 1) * 1024, dtype=np.int64) + 1) * 10
        columns = [np.round(np.cumsum(rng.normal(size=1024)), 1),
                   rng.random(1024), (t % 13).astype(np.float64),
                   rng.normal(size=1024)]
        payload = frames.encode_batch_payload(
            "s", schema_bytes, codec,
            ColumnarEvents(t.tolist(), [column.tolist() for column in columns]),
        )
        _, _, timestamps, decoded = frames.decode_batch_payload(payload)
        stream.append_columns(timestamps, decoded)

    assert len(leaf_flushes) >= 100
    assert len(kernel) == len(folds) == 20
    db.close()


def test_column_trials_run_once_per_interval(monkeypatch):
    """The late-heavy load with small leaves (several trial intervals per
    split): per split, at most ``ceil(leaves / TRIAL_INTERVAL) + 1``
    trials for the leaf C-blocks its codec compressed, updates included."""
    t, a, b, order = late_heavy_load(29)
    leaves, trials = {}, {}

    def tally(counts, name, when):
        original = getattr(ZlibCompressor, name)

        def counted(self, data, *args):
            if when(data):
                counts[id(self)] = counts.get(id(self), 0) + 1
            return original(self, data, *args)

        monkeypatch.setattr(ZlibCompressor, name, counted)

    tally(leaves, "compress", lambda data: data[:4] == LEAF_MAGIC)
    tally(trials, "_trial", lambda view: True)
    db = ChronicleDB(
        config=dataclasses.replace(CONFIG, lblock_size=1024, macro_size=4096)
    )
    stream = db.create_stream("s", EventSchema.of("a", "b"))
    for i in range(0, N_EVENTS, 128):
        pick = order[i : i + 128]
        stream.append_columns(t[pick].tolist(), [a[pick].tolist(), b[pick].tolist()])
    db.flush()

    assert sum(split.manager.checkpoints for split in stream.splits) >= 1
    codecs = {id(split.layout.codec) for split in stream.splits}
    assert len(leaves) >= 2 and set(leaves) <= codecs
    assert min(leaves.values()) > 2 * TRIAL_INTERVAL
    for codec, count in leaves.items():
        assert 1 <= trials.get(codec, 0) <= math.ceil(count / TRIAL_INTERVAL) + 1


def test_leaf_flushes_fold_no_column_in_python(monkeypatch):
    """Wire batches shaped like the benchmark's data, whose column
    ``c = t % 13`` has a ``0.0`` minimum in every leaf: no leaf flush
    iterates a leaf column in Python (builtin ``min`` / ``max`` or an
    exact-sum loop over it).  A leaf with one NaN column takes exactly
    one per-value pass, over that column."""
    schema = EventSchema.of("a", "b", "c", "d")
    codec = serializer.PaxCodec(schema)
    schema_bytes = frames.schema_bytes_of(schema)
    rng = np.random.default_rng(40)
    db = ChronicleDB(config=ChronicleConfig(lblock_size=4096))
    stream = db.create_stream("s", schema)
    folded = []

    def per_value(fold):
        def counted(values, *args, **kwargs):
            if isinstance(values, array):  # a leaf column
                folded.append(values)
            return fold(values, *args, **kwargs)
        return counted

    for name, fold in (("min", min), ("max", max),
                       ("ordered_sums", entry_module.ordered_sums)):
        monkeypatch.setattr(entry_module, name, per_value(fold), raising=False)
    flushes = count_calls(monkeypatch, TabTree, "_flush_leaf")

    def send(k, nan=False):
        t = (np.arange(k * 256, (k + 1) * 256, dtype=np.int64) + 1) * 10
        columns = [rng.normal(size=256), rng.random(256),
                   (t % 13).astype(np.float64), rng.normal(size=256)]
        if nan:  # row 0 goes into the open leaf
            columns[1][0] = math.nan
        payload = frames.encode_batch_payload(
            "s", schema_bytes, codec,
            ColumnarEvents(t.tolist(), [column.tolist() for column in columns]),
        )
        _, _, timestamps, decoded = frames.decode_batch_payload(payload)
        stream.append_columns(timestamps, decoded)

    k = 0
    while len(flushes) < 5:
        send(k)
        k += 1
    assert folded == []

    send(k, nan=True)
    send(k + 1)
    send(k + 2)
    assert len({id(column) for column in folded}) == 1
    assert math.isnan(entry_module.ordered_sum(folded[0]))
    db.close()
