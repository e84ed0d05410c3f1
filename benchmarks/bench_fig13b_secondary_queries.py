"""Figure 13b: secondary-query time vs. selectivity on DEBS `velocity`.

Three access paths over the attribute with the lowest temporal
correlation, plus the full-scan baseline (the paper's dashed line):

* **TAB+-tree** — ChronicleDB's inherent lightweight min/max pruning;
* **LSM**       — ChronicleDB with a log-structured secondary index;
* **CR-index**  — LogBase with the per-attribute block-interval index.

Expected shape (paper): at very low selectivity the LSM index wins
(Bloom filters + few lookups), with the in-memory CR-index close; as
selectivity grows, the LSM's random accesses into the primary store and
the CR-index's wide block intervals blow up, and the TAB+-tree — which
degrades gracefully toward a (compressed, fast) sequential scan — wins.
"""

from benchmarks.common import cold_caches, make_chronicle, report_rows
from repro.baselines import CrIndex, LogBaseLikeStore
from repro.datasets import DebsDataset
from repro.index import AttributeRange
from repro.simdisk import SimulatedClock

EVENTS = 120_000
#: (label, low, high): from burst-only slivers to a range that spills
#: into the alternation band (~1.5 %, the paper's 1.3 % upper end).
RANGES = [
    ("0.0005%", 22_990.0, 23_000.0),
    ("0.05%", 22_900.0, 23_000.0),
    ("0.5%", 22_000.0, 23_000.0),
    ("1.5%", 20_900.0, 23_000.0),
]


def build_stores():
    dataset = DebsDataset(seed=0)
    _, tab_stream, tab_clock = make_chronicle(dataset.schema)
    tab_stream.append_many(dataset.events(EVENTS))
    tab_stream.flush()

    _, lsm_stream, lsm_clock = make_chronicle(
        dataset.schema, secondary_indexes={"velocity": "lsm"}
    )
    lsm_stream.append_many(dataset.events(EVENTS))
    lsm_stream.flush()

    cr_clock = SimulatedClock()
    logbase = LogBaseLikeStore(dataset.schema, cr_clock)
    cr = CrIndex(logbase, "velocity")
    for event in dataset.events(EVENTS):
        logbase.append(event)
        cr.observe(event)
    cr.finish()
    return (tab_stream, tab_clock), (lsm_stream, lsm_clock), (cr, cr_clock)


def run_figure13b():
    (tab_stream, tab_clock), (lsm_stream, lsm_clock), (cr, cr_clock) = (
        build_stores()
    )
    tab_clock.reset()
    scan_count = sum(1 for _ in tab_stream.scan())
    scan_seconds = tab_clock.now

    rows = []
    results = {}
    for label, low, high in RANGES:
        cold_caches(tab_stream)
        cold_caches(lsm_stream)
        tab_clock.reset()
        tab_hits = sum(
            1
            for _ in tab_stream.time_travel(
                -(2**62), 2**62, [AttributeRange("velocity", low, high)]
            )
        )
        tab_seconds = tab_clock.now

        lsm_clock.reset()
        lsm_hits = len(lsm_stream.search("velocity", low, high))
        lsm_seconds = lsm_clock.now

        cr_clock.reset()
        cr_hits = len(cr.query(low, high))
        cr_seconds = cr_clock.now

        assert tab_hits == lsm_hits == cr_hits
        selectivity = tab_hits / scan_count
        rows.append([label, tab_hits, f"{selectivity:.5%}",
                     f"{cr_seconds:.4f}", f"{lsm_seconds:.4f}",
                     f"{tab_seconds:.4f}"])
        results[label] = (cr_seconds, lsm_seconds, tab_seconds)
    return rows, results, scan_seconds


def test_fig13b_secondary_query_performance(benchmark):
    rows, results, scan_seconds = benchmark.pedantic(run_figure13b, rounds=1,
                                                     iterations=1)
    rows.append(["full scan", "-", "100%", "-", "-", f"{scan_seconds:.4f}"])
    report_rows(
        "fig13b_secondary_queries",
        "Figure 13b — query time vs. selectivity on DEBS velocity "
        "(simulated seconds)",
        ["Range", "Hits", "Selectivity", "CR-index", "LSM", "TAB+-tree"],
        rows,
    )

    low_cr, low_lsm, low_tab = results["0.0005%"]
    high_cr, high_lsm, high_tab = results["1.5%"]
    # Very low selectivity: the dedicated secondary indexes beat pure
    # lightweight indexing.
    assert low_lsm < low_tab
    # High selectivity: the TAB+-tree wins against both (the paper's
    # break-even) and degrades toward scan cost rather than blowing up
    # (within a small factor: cold index-node reads the scan skips).
    assert high_tab < high_lsm
    assert high_tab < high_cr
    assert high_tab < scan_seconds * 4
