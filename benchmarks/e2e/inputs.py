"""Seeded input generator of the end-to-end benchmark.

Everything the scenario sends — event batches in arrival order, probe
query windows — and every reference answer it checks against is made
here from ``(workload, scale, seed)`` with numpy alone.  Nothing is
imported from ``repro.datasets``, so a product PR cannot change the
load; the program under test receives only the generated inputs.

Self-check (same seed → same bytes)::

    python benchmarks/e2e/inputs.py --seed 7 --check
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

if __package__:
    from . import params as P
else:  # run as a script
    import params as P


def scaled(workload: str, scale: float) -> dict:
    """The workload's parameter set with every count multiplied by
    *scale* (batch sizes, window sizes and shapes stay as they are)."""
    base = dict(P.WORKLOADS[workload])
    batch = base["batch"]
    windows = P.LOAD_WINDOWS
    # Whole windows of whole batches, so every load window does the
    # same work.
    per_window = max(1, round(base["load_events"] * scale / windows / batch))
    base["load_events"] = per_window * windows * batch
    segments = P.PACE_SEGMENTS
    per_segment = max(4, round(base["paced_batches"] * scale / segments))
    base["paced_batches"] = per_segment * segments
    base["probe"] = {
        kind: (max(12, round(count * scale)) if count else 0)
        for kind, count in base["probe"].items()
    }
    total = base["load_events"] + base["paced_batches"] * base["paced_batch"]
    if base["delivery_events"]:
        # Whole batches per window: four or more when the loaded store
        # has them, never fewer than two (a rate needs two receipts).
        # Windows wrap around the loaded range, so the total may exceed it.
        per = max(4, round(base["delivery_events"] * scale
                           / P.DELIVERY_WINDOWS / batch))
        per = max(2, min(per, base["load_events"] // (4 * batch)))
        base["delivery_events"] = per * batch * P.DELIVERY_WINDOWS
    base["late_bulk_every"] = max(
        256, min(base["late_bulk_every"], base["load_events"] // 4)
    )
    base["filter_window"] = min(P.FILTER_WINDOW_EVENTS, total // 8)
    base["select_window"] = min(P.SELECT_WINDOW_EVENTS, total // 8)
    base["recent_events"] = min(P.RECENT_EVENTS, base["load_events"] // 2)
    base["total_events"] = total
    if base["splits"] > 1:
        base["time_split_interval"] = P.T_STEP * math.ceil(
            (total + 1) / base["splits"]
        )
    else:
        base["time_split_interval"] = None
    return base


@dataclass
class Query:
    kind: str  # agg | filter | select | group
    sql: str
    lo: int  # first time-order index of the window
    hi: int  # one past the last
    theta: float | None = None
    width: int | None = None
    expected: object = None
    result: object = None
    #: Runs only after the last paced batch (ranges over the newest events).
    recent: bool = False


@dataclass
class Inputs:
    workload: str
    seed: int
    wp: dict
    #: Event columns in ARRIVAL order (load phase first, then paced).
    t: np.ndarray = None
    cols: list = None
    #: True where the event arrives behind the running maximum.
    late: np.ndarray = None
    #: Time-ordered view for reference answers.
    rt: np.ndarray = None
    rcols: list = None
    queries: list = field(default_factory=list)
    #: uniform draws the live_rw concurrent probe maps onto the moving
    #: recent window (positions depend on the frontier at send time)
    live_draws: np.ndarray = None

    @property
    def n_load(self) -> int:
        return self.wp["load_events"]

    @property
    def n_total(self) -> int:
        return self.wp["total_events"]


def _arrival_order(n: int, wp: dict, rng) -> np.ndarray:
    """Permutation: arrival position -> time-order index.

    Section 7.5 shape: within every window of ``late_bulk_every`` events
    a fraction is withheld and arrives as a bulk at the window's end.
    The withheld events keep their own (unique) timestamps; which ones
    are withheld is drawn by their distance from the window's end,
    exponentially distributed, so short delays dominate.
    """
    fraction = wp["late_fraction"]
    if not fraction:
        return np.arange(n, dtype=np.int64)
    every = wp["late_bulk_every"]
    mean = wp["late_exp_scale"] * every
    parts = []
    for start in range(0, n, every):
        size = min(every, n - start)
        want = int(round(size * fraction))
        distance = np.unique(
            np.minimum(rng.exponential(mean, size=4 * want + 8).astype(np.int64),
                       size - 1)
        )
        rng.shuffle(distance)
        chosen = np.sort(size - 1 - distance[:want])
        keep = np.ones(size, dtype=bool)
        keep[chosen] = False
        parts.append(start + np.flatnonzero(keep))
        parts.append(start + chosen)
    return np.concatenate(parts)


def columns(n: int, rng) -> tuple[np.ndarray, list]:
    t = (np.arange(n, dtype=np.int64) + 1) * P.T_STEP
    walk = np.cumsum(rng.normal(0.0, 0.1, n))
    # Fold the walk into [-5, 5] (a triangle wave keeps it continuous).
    a = np.round(np.abs((walk + 5.0) % 20.0 - 10.0) - 5.0, 2)
    a = a + 0.0  # no negative zeros on the wire
    b = rng.random(n)
    c = (t % 13).astype(np.float64)
    d = rng.normal(0.0, 1.0, n)
    return t, [a, b, c, d]


def _time_clause(rt: np.ndarray, lo: int, hi: int) -> str:
    return f"t >= {int(rt[lo])} AND t <= {int(rt[hi - 1])}"


def agg_expected(rcols, lo: int, hi: int) -> dict:
    a, b, _, d = rcols
    return {
        "avg(a)": float(a[lo:hi].mean()),
        "max(b)": float(b[lo:hi].max()),
        "min(d)": float(d[lo:hi].min()),
    }


def filter_expected(rcols, lo: int, hi: int, theta: float) -> dict:
    a, b = rcols[0], rcols[1]
    mask = a[lo:hi] >= theta
    return {
        "count(a)": float(mask.sum()),
        "avg(b)": float(b[lo:hi][mask].mean()),
    }


def select_expected(rt, rcols, lo: int, hi: int) -> list:
    return [
        (int(rt[i]), tuple(float(col[i]) for col in rcols))
        for i in range(lo, hi)
    ]


def group_expected(rt, rcols, lo: int, hi: int, width: int) -> list:
    a, b, _, d = rcols
    buckets = rt[lo:hi] // width
    rows = []
    edges = np.flatnonzero(np.diff(buckets)) + 1
    for start, stop in zip(np.r_[0, edges], np.r_[edges, hi - lo]):
        s, e = lo + int(start), lo + int(stop)
        first = int(buckets[start]) * width
        rows.append({
            "t_start": first,
            "t_end": first + width,
            "avg(a)": float(a[s:e].mean()),
            "max(b)": float(b[s:e].max()),
            "min(d)": float(d[s:e].min()),
        })
    return rows


def make_query(kind: str, rt, rcols, lo: int, hi: int, stream: str,
               with_expected: bool = True) -> Query:
    """One probe query over time-order rows ``[lo, hi)`` and its
    reference answer."""
    where = _time_clause(rt, lo, hi)
    if kind == "agg":
        sql = f"SELECT avg(a), max(b), min(d) FROM {stream} WHERE {where}"
        query = Query(kind, sql, lo, hi)
        if with_expected:
            query.expected = agg_expected(rcols, lo, hi)
    elif kind == "filter":
        theta = float(
            np.quantile(rcols[0][lo:hi], 1.0 - P.FILTER_SELECTIVITY,
                        method="lower")
        )
        sql = (f"SELECT count(a), avg(b) FROM {stream} WHERE {where} "
               f"AND a >= {theta!r}")
        query = Query(kind, sql, lo, hi, theta=theta)
        if with_expected:
            query.expected = filter_expected(rcols, lo, hi, theta)
    elif kind == "select":
        sql = f"SELECT * FROM {stream} WHERE {where}"
        query = Query(kind, sql, lo, hi)
        if with_expected:
            query.expected = select_expected(rt, rcols, lo, hi)
    elif kind == "group":
        span = int(rt[hi - 1] - rt[lo])
        width = max(P.T_STEP, span // P.GROUP_BUCKETS // P.T_STEP * P.T_STEP)
        sql = (f"SELECT avg(a), max(b), min(d) FROM {stream} WHERE {where} "
               f"GROUP BY time({width})")
        query = Query(kind, sql, lo, hi, width=width)
        if with_expected:
            query.expected = group_expected(rt, rcols, lo, hi, width)
    else:
        raise ValueError(f"unknown query kind {kind!r}")
    return query


def window_sizes(wp: dict) -> dict:
    third = wp["total_events"] // 3
    return {
        "agg": third,
        "group": third,
        "filter": wp["filter_window"],
        "select": wp["select_window"],
    }


def _probe_queries(inputs: Inputs, rng) -> list:
    """Round-robin interleaved probe list with windows drawn from the
    seed.  The probe runs in slices between paced segments, so windows
    lie in the part of the store that is complete when the first slice
    runs: loaded, checkpointed, and clear of time ranges where a late
    event may still arrive or sit in an out-of-order queue (index-only
    and columnar plans read trees only, by documented design).  The
    exception is the last slice's ``q_select`` windows, which run after
    the last paced batch and range over the newest events — on
    ``late_small`` some of those hit the queue and take the ROW plan."""
    wp = inputs.wp
    n = inputs.n_total
    safe = inputs.n_load - (wp["late_bulk_every"] if wp["late_fraction"] else 0)
    sizes = window_sizes(wp)
    per_kind = {}
    for kind, count in wp["probe"].items():
        if not count:
            continue
        size = sizes[kind]
        # Stratified: one window per equal slice of the range, so the
        # mix of positions (a scan's cost depends on where it starts)
        # is the same for every seed.
        starts = (
            (np.arange(count) + rng.random(count)) / count
            * max(1, safe - size)
        ).astype(np.int64)
        rng.shuffle(starts)
        if kind == "select":
            recent = count // P.ROUNDS
            starts[count - recent :] = rng.integers(
                safe, n - size, size=recent
            )
        per_kind[kind] = [
            make_query(kind, inputs.rt, inputs.rcols, int(s), int(s) + size,
                       P.STREAM)
            for s in starts
        ]
        for query in per_kind[kind]:
            query.recent = query.hi > safe
    # Interleave: each template's queries are spread evenly over the
    # whole phase, so a slow stretch hits every template alike.
    tagged = []
    for kind, queries in per_kind.items():
        for i, query in enumerate(queries):
            tagged.append(((i + 0.5) / len(queries), kind, query))
    tagged.sort(key=lambda item: (item[0], item[1]))
    return [query for _, _, query in tagged]


def generate(workload: str, scale: float, seed: int) -> Inputs:
    wp = scaled(workload, scale)
    rng = np.random.default_rng([seed, sorted(P.WORKLOADS).index(workload)])
    n = wp["total_events"]
    rt, rcols = columns(n, rng)
    order = _arrival_order(n, wp, rng)
    inputs = Inputs(workload, seed, wp)
    inputs.rt, inputs.rcols = rt, rcols
    inputs.t = rt[order]
    inputs.cols = [col[order] for col in rcols]
    inputs.late = inputs.t < np.maximum.accumulate(inputs.t)
    inputs.queries = _probe_queries(inputs, rng)
    inputs.live_draws = rng.random(4096)
    return inputs


def to_batches(t, cols, size: int) -> list:
    """``(timestamps, columns)`` list pairs in batches of *size* — plain
    Python lists, which is what the client's columnar encoder takes."""
    ts = t.tolist()
    lists = [col.tolist() for col in cols]
    return [
        (ts[i : i + size], [col[i : i + size] for col in lists])
        for i in range(0, len(ts), size)
    ]


def batches(inputs: Inputs, start: int, stop: int, size: int) -> list:
    """Batches of arrival rows ``[start, stop)``."""
    return to_batches(inputs.t[start:stop],
                      [col[start:stop] for col in inputs.cols], size)


def digest(inputs: Inputs) -> str:
    """SHA-256 over every generated batch, query window and reference
    answer — the determinism self-check compares two of these."""
    h = hashlib.sha256()
    h.update(inputs.t.tobytes())
    for col in inputs.cols:
        h.update(col.tobytes())
    for query in inputs.queries:
        h.update(query.sql.encode())
        h.update(repr(query.expected).encode())
    h.update(inputs.live_draws.tobytes())
    return h.hexdigest()


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=P.DEFAULT_SEED)
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--check", action="store_true",
                        help="generate twice and compare digests")
    args = parser.parse_args(argv)
    status = 0
    for workload in P.WORKLOADS:
        first = digest(generate(workload, args.scale, args.seed))
        line = f"{workload} seed={args.seed} sha256={first}"
        if args.check:
            again = digest(generate(workload, args.scale, args.seed))
            other = digest(generate(workload, args.scale, args.seed + 1))
            ok = first == again and first != other
            line += " deterministic" if ok else " MISMATCH"
            status |= 0 if ok else 1
        print(line)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
