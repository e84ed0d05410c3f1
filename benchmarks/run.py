#!/usr/bin/env python3
"""Unified benchmark runner with a perf-regression gate.

Runs a named suite of the repo's benchmark scripts (each reproducing one
paper figure or an internal fast path), collects their machine-readable
results plus an observability snapshot, and merges everything into one
schema-versioned ``BENCH_core.json``: at the repo root for ``--suite
full``, under the untracked ``benchmarks/results/scaled/`` for the
scaled-down suites.

The regression gate compares **simulated-clock** metrics only: given the
pinned dataset seeds, those are bit-identical across machines, so a CI
runner can hold them to a tight threshold.  Wall-clock numbers (metric
names ending in ``_wall``) are recorded for context but never gated —
shared CI runners are too noisy for that.

Usage::

    python benchmarks/run.py --suite smoke
    python benchmarks/run.py --suite smoke --compare benchmarks/baseline_smoke.json
    python benchmarks/run.py --input RESULTS.json --compare BASELINE.json

Exit status 1 when any gated metric regresses by more than ``--threshold``
(relative, default 0.15) against the baseline.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for entry in (REPO_ROOT, os.path.join(REPO_ROOT, "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks import common  # noqa: E402

CORE_SCHEMA = "chronicledb-bench-core-v1"
#: Per-bench tables and merged results of the scaled-down suites
#: (untracked): the committed ``benchmarks/results/`` and
#: ``BENCH_core.json`` hold native-scale (``--suite full``) runs.
SCALED_RESULTS = os.path.join(REPO_ROOT, "benchmarks", "results", "scaled")


def default_out(suite_name):
    """Where a suite's merged results go without ``--out``."""
    root = REPO_ROOT if suite_name == "full" else SCALED_RESULTS
    return os.path.join(root, "BENCH_core.json")


def metric(value, unit, higher_is_better=True, gate=True):
    return {
        "value": float(value),
        "unit": unit,
        "higher_is_better": higher_is_better,
        "gate": gate,
    }


# ----------------------------------------------------------- extractors
#
# One adapter per bench: maps the bench's ``run_*()`` return value to a
# flat {metric_name: metric(...)} dict.  Gated metrics are simulated-
# clock quantities; ``*_wall`` metrics are informational only.


def extract_batch_ingest(results):
    full = results[0]  # zlib codec, validation on: the headline path
    batch = full["batches"]["1024"]
    return {
        "ingest.sim_eps": metric(full["simulated_eps"], "events/s"),
        "ingest.batch1024_sim_ratio": metric(
            batch["simulated_ratio"], "ratio", higher_is_better=False
        ),
        "ingest.per_event_eps_wall": metric(
            full["per_event_wall_eps"], "events/s", gate=False
        ),
        "ingest.batch1024_speedup_wall": metric(batch["speedup_wall"], "x", gate=False),
    }


def extract_fig16(result):
    _, rates = result
    out = {}
    for (fraction, distribution, spare), rate in rates.items():
        name = f"ooo.sim_eps_f{int(fraction * 100)}_{distribution}_s{int(spare * 100)}"
        out[name] = metric(rate, "events/s")
    return out


def extract_fig12(result):
    _, travel, aggregate = result
    full = max(travel)
    return {
        "query.time_travel_sim_s": metric(travel[full], "s", higher_is_better=False),
        "query.aggregate_sim_s": metric(aggregate[full], "s", higher_is_better=False),
    }


def extract_fig10(result):
    rows, recovery_io = result
    # rows: [events, "sim ms", "wall ms", "KiB scanned"]
    first = rows[0]
    return {
        "recovery.tlb_sim_ms": metric(float(first[1]), "ms", higher_is_better=False),
        "recovery.tlb_wall_ms_wall": metric(
            float(first[2]), "ms", higher_is_better=False, gate=False
        ),
        "recovery.tail_bytes": metric(
            min(recovery_io.values()), "bytes", higher_is_better=False
        ),
    }


def extract_fig13a(result):
    _, times = result
    return {
        "secondary.load_tab_sim_s": metric(
            times["TAB+-tree"], "s", higher_is_better=False
        ),
        "secondary.load_lsm_sim_s": metric(times["LSM"], "s", higher_is_better=False),
    }


def extract_cluster_scaling(results):
    last = results[-1]  # the widest topology (4 shards)
    return {
        "cluster.sim_eps_4sh": metric(last["sim_eps"], "events/s"),
        "cluster.scaling_4sh": metric(last["scaling"], "x"),
        "cluster.wall_eps_4sh_wall": metric(last["wall_eps"], "events/s", gate=False),
    }


def extract_cluster_wire(result):
    # A wall measurement on whatever machine runs the suite: reported,
    # never gated.  The wire's gate is ``ingest_eps`` of benchmarks/e2e.
    return {
        "cluster.wire_binary_eps_wall": metric(
            result["binary_eps"], "events/s", gate=False
        ),
    }


def extract_lifecycle(result):
    # The footprint ratio is pure device accounting on the simulated
    # disks and the latencies are simulated-clock, so everything here is
    # deterministic and gate-safe.  The cold aggregate reads no leaf
    # data and its sim cost rounds to zero; it is recorded ungated (the
    # compare step skips zero baselines anyway).
    return {
        "lifecycle.footprint_reduction_x": metric(result["reduction"], "x"),
        "lifecycle.hot_scan_sim_s": metric(
            result["hot_scan_sim_s"], "s", higher_is_better=False
        ),
        "lifecycle.warm_scan_sim_s": metric(
            result["warm_scan_sim_s"], "s", higher_is_better=False
        ),
        "lifecycle.cold_aggregate_sim_s": metric(
            result["cold_aggregate_sim_s"], "s", higher_is_better=False,
            gate=False,
        ),
    }


def extract_query_suite(result):
    # Speedups are ratios of two simulated-clock measurements over the
    # same warmed caches, so they are deterministic and gate-safe; the
    # absolute sim times ride along ungated for context.
    out, _rows = result
    return {
        "query.index_only_speedup_x": metric(out["index_only"]["speedup"], "x"),
        "query.columnar_scan_speedup_x": metric(out["columnar"]["speedup"], "x"),
        "query.index_only_planner_sim_s": metric(
            out["index_only"]["planner_sim_s"], "s", higher_is_better=False,
            gate=False,
        ),
        "query.columnar_planner_sim_s": metric(
            out["columnar"]["planner_sim_s"], "s", higher_is_better=False,
            gate=False,
        ),
    }


def extract_elastic(result):
    # Retention is a ratio of two wall rates measured back to back on
    # one machine, so machine speed divides out; its committed baseline
    # is a conservative floor (the acceptance criterion is 75%).  The
    # absolute rates are machine-bound and ride along ungated; the
    # migrated-event count is deterministic but descriptive, not a
    # performance quantity.
    return {
        "cluster.split_ingest_retention_pct": metric(result["retention_pct"], "%"),
        "cluster.split_migrated_events": metric(
            result["migrated_events"], "events", gate=False
        ),
        "cluster.split_steady_eps_wall": metric(
            result["steady_eps"], "events/s", gate=False
        ),
        "cluster.split_during_eps_wall": metric(
            result["during_eps"], "events/s", gate=False
        ),
    }


def extract_sub(result):
    # Delivery lag is wall-clock, so the committed baseline is
    # deliberately slack (tens of ms against a single-digit typical
    # p99); the throughput rides along ungated.  Multi-tenant retention
    # is a ratio of two wall rates on the same runner, so machine speed
    # divides out — its baseline floors the eviction machinery's
    # overhead, and the absolute rates ride along for context.
    lat, mt = result["latency"], result["multitenant"]
    return {
        "sub.delivery_lag_p99_ms": metric(
            lat["lag_p99_ms"], "ms", higher_is_better=False
        ),
        "sub.delivery_eps_wall": metric(
            lat["delivery_eps"], "events/s", gate=False
        ),
        "sub.multitenant_ingest_eps": metric(mt["zipf_eps"], "events/s"),
        "sub.multitenant_retention_pct": metric(mt["retention_pct"], "%"),
        "sub.dense_ingest_eps_wall": metric(
            mt["dense_eps"], "events/s", gate=False
        ),
    }


# ---------------------------------------------------------------- suites
#
# Each entry: bench key, module, runner function, module-constant
# overrides (smoke scales down; ``{}`` keeps the bench's defaults), and
# the extractor above.  Every bench pins its dataset seeds internally,
# so a suite is deterministic end to end.

SUITES = {
    "smoke": [
        {
            "name": "batch_ingest",
            "module": "benchmarks.bench_batch_ingest",
            "fn": "run_bench",
            "overrides": {
                "EVENTS": 20_000,
                "REPEATS": 2,
                "BATCH_SIZES": (256, 1024),
            },
            "extract": extract_batch_ingest,
        },
        {
            "name": "fig16_out_of_order",
            "module": "benchmarks.bench_fig16_out_of_order",
            "fn": "run_figure16",
            "overrides": {
                "EVENTS": 10_000,
                "FRACTIONS": [0.05],
                "SPARES": [0.0, 0.10],
                "DISTRIBUTIONS": ["uniform"],
            },
            "extract": extract_fig16,
        },
        {
            "name": "fig12_temporal_queries",
            "module": "benchmarks.bench_fig12_temporal_queries",
            "fn": "run_figure12",
            "overrides": {"EVENTS": 30_000, "SELECTIVITIES": [0.1, 1.0]},
            "extract": extract_fig12,
        },
        {
            "name": "fig10_tlb_recovery",
            "module": "benchmarks.bench_fig10_tlb_recovery",
            "fn": "run_figure10",
            "overrides": {"SCALES": [25_000, 50_000]},
            "extract": extract_fig10,
        },
        {
            "name": "fig13a_secondary_loading",
            "module": "benchmarks.bench_fig13a_secondary_loading",
            "fn": "run_figure13a",
            "overrides": {"EVENTS": 30_000},
            "extract": extract_fig13a,
        },
        {
            "name": "query_suite",
            "module": "benchmarks.bench_query_suite",
            "fn": "run_query_suite",
            "overrides": {"EVENTS": 40_000},
            "extract": extract_query_suite,
        },
        {
            "name": "lifecycle",
            "module": "benchmarks.bench_lifecycle",
            "fn": "run_lifecycle",
            "overrides": {"EVENTS": 60_000},
            "extract": extract_lifecycle,
        },
        {
            "name": "cluster_scaling",
            "module": "benchmarks.bench_cluster_scaling",
            "fn": "run_cluster_scaling",
            "overrides": {"EVENTS": 24_000},
            "extract": extract_cluster_scaling,
        },
        {
            "name": "cluster_wire",
            "module": "benchmarks.bench_cluster_scaling",
            "fn": "run_wire_ingest",
            "overrides": {"WIRE_EVENTS": 96_000, "WIRE_REPS": 2},
            "extract": extract_cluster_wire,
        },
        {
            "name": "elastic_split",
            "module": "benchmarks.bench_elastic",
            "fn": "run_elastic",
            "overrides": {},
            "extract": extract_elastic,
        },
        {
            "name": "sub_pipeline",
            "module": "benchmarks.bench_sub",
            "fn": "run_sub",
            "overrides": {},
            "extract": extract_sub,
        },
    ],
}

# The full suite is the same benches at their native scale.
SUITES["full"] = [dict(entry, overrides={}) for entry in SUITES["smoke"]]

# The query suite runs just the query-path benches at smoke scale — the
# CI ``query-perf-smoke`` job gates it with ``--metrics query.`` so only
# query metrics are compared against the shared smoke baseline.
SUITES["query"] = [
    entry
    for entry in SUITES["smoke"]
    if entry["name"] in ("fig12_temporal_queries", "query_suite")
]

# The elastic suite runs just the live-split bench — the CI
# ``elastic-smoke`` job gates it with ``--metrics cluster.split`` so
# only the split metrics are compared against the shared smoke baseline.
SUITES["elastic"] = [
    entry for entry in SUITES["smoke"] if entry["name"] == "elastic_split"
]

# The sub suite runs just the subscription-pipeline bench — the CI
# ``sub-smoke`` job gates it with ``--metrics sub.`` so only the
# subscription metrics are compared against the shared smoke baseline.
SUITES["sub"] = [
    entry for entry in SUITES["smoke"] if entry["name"] == "sub_pipeline"
]


# ---------------------------------------------------------------- runner


def run_entry(entry, results_dir):
    """Run one bench with its overrides applied, its tables written to
    *results_dir*; restore them after."""
    module = importlib.import_module(entry["module"])
    patches = [(module, name, value) for name, value in entry["overrides"].items()]
    patches += [
        (owner, "RESULTS_DIR", results_dir)
        for owner in (common, module)
        if hasattr(owner, "RESULTS_DIR")
    ]
    saved = []
    for owner, name, value in patches:
        saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)
    try:
        started = time.perf_counter()
        result = getattr(module, entry["fn"])()
        wall = time.perf_counter() - started
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)
    return entry["extract"](result), wall


def run_suite(suite_name):
    from repro import obs

    entries = SUITES[suite_name]
    # Only the native-scale suite rewrites the committed per-bench tables.
    results_dir = common.RESULTS_DIR if suite_name == "full" else SCALED_RESULTS
    metrics = {}
    benches = {}
    obs.reset()
    obs.enable()
    try:
        for entry in entries:
            print(f"[run.py] running {entry['name']} ...", flush=True)
            extracted, wall = run_entry(entry, results_dir)
            overlap = set(extracted) & set(metrics)
            if overlap:
                raise SystemExit(f"duplicate metric names: {sorted(overlap)}")
            metrics.update(extracted)
            benches[entry["name"]] = {
                "module": entry["module"],
                "overrides": {
                    k: list(v) if isinstance(v, tuple) else v
                    for k, v in entry["overrides"].items()
                },
                "wall_seconds": round(wall, 3),
            }
        snapshot = obs.snapshot()
    finally:
        obs.disable()
        obs.reset()
    return {
        "schema": CORE_SCHEMA,
        "suite": suite_name,
        "python": platform.python_version(),
        "metrics": metrics,
        "benches": benches,
        "obs": snapshot,
    }


# ----------------------------------------------------------------- gate


def compare(current, baseline, threshold, prefixes=None):
    """Returns a list of regression strings (empty = gate passes).

    Only metrics flagged ``gate`` in the *baseline* are held to the
    threshold.  A gated metric that disappears from the current run is a
    *failure* (a bench that stops reporting must not pass its own gate);
    metrics only present in the current run are **warnings**, never
    failures (adding a bench must not break CI retroactively) — but they
    are listed loudly in the summary so an unbaselined metric cannot
    ride along silently ungated forever.

    *prefixes* (from ``--metrics``) restricts the comparison to metric
    names starting with any of the given prefixes, so partial suites can
    gate their slice of a full baseline.
    """

    def selected(name):
        return prefixes is None or any(name.startswith(p) for p in prefixes)

    regressions = []
    base_metrics = {
        name: value
        for name, value in baseline.get("metrics", {}).items()
        if selected(name)
    }
    cur_metrics = {
        name: value
        for name, value in current.get("metrics", {}).items()
        if selected(name)
    }
    for name, base in sorted(base_metrics.items()):
        if not base.get("gate", True):
            continue
        cur = cur_metrics.get(name)
        if cur is None:
            regressions.append(
                f"{name}: gated metric missing from current run "
                f"(baseline {base['value']:g})"
            )
            continue
        base_value, cur_value = base["value"], cur["value"]
        if base_value == 0:
            continue
        change = (cur_value - base_value) / abs(base_value)
        worse = -change if base.get("higher_is_better", True) else change
        marker = "REGRESSION" if worse > threshold else "ok"
        print(
            f"[gate] {name}: {base_value:g} -> {cur_value:g} "
            f"({change:+.1%}) {marker}"
        )
        if worse > threshold:
            regressions.append(
                f"{name}: {base_value:g} -> {cur_value:g} ({change:+.1%}, "
                f"threshold {threshold:.0%})"
            )
    new_metrics = sorted(set(cur_metrics) - set(base_metrics))
    for name in new_metrics:
        print(f"[gate] WARNING: metric {name} not in baseline (ungated)")
    if new_metrics:
        print(
            f"[gate] WARNING: {len(new_metrics)} new metric(s) missing from "
            f"the baseline: {', '.join(new_metrics)} — add them to the "
            f"baseline to gate them"
        )
    return regressions


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite",
        choices=sorted(SUITES),
        default="smoke",
        help="benchmark suite to run (default: smoke)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="where to write the merged results (default: BENCH_core.json, "
        "under benchmarks/results/scaled/ unless --suite full)",
    )
    parser.add_argument(
        "--input",
        default=None,
        metavar="RESULTS.json",
        help="skip running; load a previous results file and just compare",
    )
    parser.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE.json",
        help="baseline to gate against; exit 1 on regression",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="relative regression threshold for gated metrics (default 0.15)",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="PREFIX[,PREFIX...]",
        help="only compare metrics whose names start with one of these "
        "comma-separated prefixes (e.g. 'query.'); lets a partial suite "
        "gate its slice of a full baseline",
    )
    args = parser.parse_args(argv)
    prefixes = (
        [p for p in args.metrics.split(",") if p] if args.metrics else None
    )

    if args.input:
        with open(args.input) as fh:
            document = json.load(fh)
        if document.get("schema") != CORE_SCHEMA:
            raise SystemExit(
                f"{args.input}: expected schema {CORE_SCHEMA!r}, "
                f"got {document.get('schema')!r}"
            )
    else:
        document = run_suite(args.suite)
        out = args.out or default_out(args.suite)
        os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
        with open(out, "w") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[run.py] wrote {out}")

    if args.compare:
        with open(args.compare) as fh:
            baseline = json.load(fh)
        regressions = compare(document, baseline, args.threshold, prefixes)
        if regressions:
            print(f"[gate] FAILED: {len(regressions)} regression(s)")
            for line in regressions:
                print(f"[gate]   {line}")
            return 1
        print("[gate] passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
