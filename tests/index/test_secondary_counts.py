"""Count-based guard (no wall clock): no per-posting Python work on ingest.

Maintaining an LSM secondary costs one ``insert_run`` per flushed leaf;
between the leaf and the device a posting is never a ``SecondaryRef``
and never a scalar ``BloomFilter.add``.  The same holds for the rebuild
a reopen performs.
"""

import numpy as np

from repro import ChronicleConfig, ChronicleDB, EventSchema
from repro.core.split import TimeSplit
from repro.index import secondary
from repro.index.bloom import BloomFilter
from repro.index.lsm import LsmIndex

N_EVENTS = 50_000
CONFIG = ChronicleConfig(secondary_indexes={"b": "lsm"}, memtable_capacity=1024)


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_ingest_and_rebuild_do_no_per_posting_work(tmp_path, monkeypatch):
    refs = count_calls(monkeypatch, secondary, "SecondaryRef")
    bloom_adds = count_calls(monkeypatch, BloomFilter, "add")
    insert_runs = count_calls(monkeypatch, LsmIndex, "insert_run")
    leaf_flushes = count_calls(monkeypatch, TimeSplit, "_on_leaf_flush")

    rng = np.random.default_rng(8)
    t = (np.arange(N_EVENTS) + 1).tolist()
    a, b = (np.floor(rng.random(N_EVENTS) * 500).tolist() for _ in range(2))
    db = ChronicleDB(str(tmp_path), CONFIG)
    stream = db.create_stream("s", EventSchema.of("a", "b"))
    for i in range(0, N_EVENTS, 1000):
        stream.append_columns(t[i : i + 1000], [a[i : i + 1000], b[i : i + 1000]])
    db.close()

    split = stream.splits[0]
    index = split.secondaries["b"]
    # The open leaf has no postings yet (searches scan it directly).
    flushed = N_EVENTS - split.tree.leaf.count
    assert index.posting_count == flushed
    assert index.merges_performed > 0  # compaction ran, also without boxing
    assert len(leaf_flushes) > 100
    assert len(insert_runs) == len(leaf_flushes)
    assert len(refs) == len(bloom_adds) == 0

    del insert_runs[:]
    db = ChronicleDB.open(str(tmp_path), CONFIG)
    reopened = db.get_stream("s").splits[0]
    rebuilt = reopened.secondaries["b"]
    assert rebuilt.posting_count == flushed
    # Leaves stream past the out-of-order node buffer; only the index
    # nodes above them are loaded through it.
    assert reopened.tree.buffer.misses < len(leaf_flushes) // 20
    assert len(insert_runs) == len(leaf_flushes)  # once per leaf in the chain
    assert len(refs) == len(bloom_adds) == 0

    # The guard can see the things it counts: a lookup does box its hits.
    hits = rebuilt.lookup_exact(7)
    assert len(refs) == len(hits) == b[:flushed].count(7.0) > 0
    db.close()
