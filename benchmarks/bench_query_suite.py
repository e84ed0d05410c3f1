"""Query planner suite: vectorized plans vs. the row-at-a-time oracle.

Two gated workloads on DEBS, both measured on the simulated clock with
warm caches (both paths then read the same already-buffered leaves, so
the comparison isolates modeled CPU — deserialization, node visits,
column decoding — from device time):

* **index-only grouped aggregation** — ``GROUP BY time(width)`` over
  indexed attributes.  The naive executor runs one logarithmic descent
  per bucket; the planner's ``index_only`` plan answers every bucket in
  a single descent per split (``TabTree.grouped_components``), touching
  leaves only where bucket boundaries cut index entries.

* **filtered scan aggregation** — an aggregate under an attribute
  predicate.  The naive path materializes every qualifying event
  (``deserialize_event`` each); the ``columnar`` plan builds selection
  vectors over the predicate column (``decode_value`` per comparison)
  and never materializes events at all.

Both workloads assert exact result equality against the oracle before
reporting any number — a fast wrong answer must fail the bench, not the
gate.
"""

from benchmarks.common import make_chronicle, report_rows
from repro.datasets import DebsDataset
from repro.testing.oracle import execute_naive

EVENTS = 120_000
#: Grouped-bucket width in events (bucket width = this * dataset step).
GROUP_STEPS = 60
#: Predicate threshold: `velocity <= 9000` selects the non-impact half
#: of the DEBS alternation (~50 % selectivity).
FILTER_THRESHOLD = 9_000.0


def _measure(db, clock, sql):
    """(naive_sim_s, planner_sim_s, plan_kind), with results verified."""
    want = execute_naive(db, sql)  # warm caches on the shared leaves
    got = db.execute(sql)
    assert got == want, f"planner diverges from oracle on {sql!r}"
    clock.reset()
    execute_naive(db, sql)
    naive_s = clock.now
    clock.reset()
    db.execute(sql)
    planner_s = clock.now
    return naive_s, planner_s, db.explain(sql)["plan"]


def run_query_suite():
    dataset = DebsDataset(seed=0)
    # A buffer large enough to keep every leaf cached after ingest: both
    # executors then pay pure modeled CPU, no device reads.
    db, stream, clock = make_chronicle(dataset.schema, buffer_capacity=8192)
    stream.append_many(dataset.events(EVENTS))
    stream.flush()

    width = GROUP_STEPS * dataset.time_step
    grouped_sql = (
        "SELECT sum(velocity), max(velocity), count(velocity) "
        f"FROM bench GROUP BY time({width})"
    )
    filtered_sql = (
        "SELECT sum(accel), avg(accel) FROM bench "
        f"WHERE velocity <= {FILTER_THRESHOLD:g}"
    )

    out = {}
    rows = []
    for name, sql, expected_plan in [
        ("index_only", grouped_sql, "index_only"),
        ("columnar", filtered_sql, "columnar"),
    ]:
        naive_s, planner_s, plan = _measure(db, clock, sql)
        assert plan == expected_plan, (name, plan)
        speedup = naive_s / planner_s if planner_s else float("inf")
        out[name] = {
            "sql": sql,
            "plan": plan,
            "naive_sim_s": naive_s,
            "planner_sim_s": planner_s,
            "speedup": speedup,
        }
        rows.append(
            [name, plan, f"{naive_s:.6f}", f"{planner_s:.6f}",
             f"{speedup:.1f}x"]
        )
    db.close()
    return out, rows


def _report(out, rows):
    report_rows(
        "query_suite",
        "Query planner — vectorized plans vs. row-at-a-time "
        "(simulated seconds, warm caches)",
        ["Workload", "Plan", "Naive (s)", "Planner (s)", "Speedup"],
        rows,
        notes=f"{EVENTS} DEBS events; results verified equal before timing",
    )
    assert out["index_only"]["speedup"] >= 10.0
    assert out["columnar"]["speedup"] >= 3.0


def test_query_suite_speedups(benchmark):
    out, rows = benchmark.pedantic(run_query_suite, rounds=1, iterations=1)
    _report(out, rows)


if __name__ == "__main__":
    _report(*run_query_suite())
