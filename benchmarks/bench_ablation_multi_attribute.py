"""Ablation: one TAB+-tree vs. one CR-index per attribute (Section 2).

"instead of creating a separate index for each attribute, ChronicleDB
keeps all secondary information within a single index.  The cost for
writing events is lower when the event is written once.  In addition,
queries on multiple attributes do not need to access multiple indexes."

This ablation quantifies both halves on DEBS-like data: ingest cost of
maintaining k CR-indexes vs. the TAB+-tree's built-in statistics, and a
conjunctive three-attribute query answered by one pruning pass vs. three
interval-index probes whose candidate sets must be intersected.
"""

from benchmarks.common import cold_caches, make_chronicle, report_rows
from repro.baselines import CrIndex, LogBaseLikeStore
from repro.datasets import DebsDataset
from repro.index import AttributeRange
from repro.simdisk import SimulatedClock

EVENTS = 60_000
ATTRIBUTES = ["x", "y", "velocity"]
#: A conjunctive predicate touching all three attributes.
PREDICATE = [
    AttributeRange("x", 0.0, 15_000.0),
    AttributeRange("y", -10_000.0, 10_000.0),
    AttributeRange("velocity", 21_000.0, 23_000.0),
]


def run_chronicle():
    dataset = DebsDataset(seed=0)
    _, stream, clock = make_chronicle(dataset.schema)
    clock.reset()
    stream.append_many(dataset.events(EVENTS))
    stream.flush()
    ingest_seconds = clock.now
    cold_caches(stream)
    clock.reset()
    hits = list(stream.time_travel(-(2**62), 2**62, PREDICATE))
    return ingest_seconds, clock.now, len(hits)


def run_cr_indexes():
    dataset = DebsDataset(seed=0)
    clock = SimulatedClock()
    store = LogBaseLikeStore(dataset.schema, clock)
    indexes = [CrIndex(store, name) for name in ATTRIBUTES]
    clock.reset()
    for event in dataset.events(EVENTS):
        store.append(event)
        for index in indexes:
            index.observe(event)
    for index in indexes:
        index.finish()
    ingest_seconds = clock.now
    clock.reset()
    candidate_sets = []
    for index, attr_range in zip(indexes, PREDICATE):
        matches = index.query(attr_range.low, attr_range.high)
        candidate_sets.append({(e.t, e.values) for e in matches})
    hits = set.intersection(*candidate_sets)
    return ingest_seconds, clock.now, len(hits)


def run_ablation():
    chron_ingest, chron_query, chron_hits = run_chronicle()
    cr_ingest, cr_query, cr_hits = run_cr_indexes()
    assert chron_hits == cr_hits
    rows = [
        ["TAB+-tree (one index)", f"{chron_ingest:.3f}", f"{chron_query:.3f}"],
        [f"{len(ATTRIBUTES)} CR-indexes", f"{cr_ingest:.3f}",
         f"{cr_query:.3f}"],
    ]
    return rows, (chron_ingest, chron_query, cr_ingest, cr_query, chron_hits)


def test_ablation_single_index_beats_per_attribute_indexes(benchmark):
    rows, results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    chron_ingest, chron_query, cr_ingest, cr_query, hits = results
    report_rows(
        "ablation_multi_attribute",
        "Ablation — one TAB+-tree vs. per-attribute CR-indexes on DEBS "
        f"(3-attribute query, {hits} hits; simulated seconds)",
        ["Design", "Ingest (s)", "Conjunctive query (s)"],
        rows,
    )
    # Writing the event once beats maintaining three structures...
    assert chron_ingest < cr_ingest
    # ...and a single pruning pass beats probing three indexes and
    # intersecting their (block-granular) candidate sets.
    assert chron_query < cr_query
