"""The traced run: two quarter-scale passes and the per-layer table.

Pass A runs the scenario untraced (one set-up, plus the tap-price
phase) and supplies the generator's own stopwatch: ``client.*`` and
``sub.ingest_slowdown_x``.  Pass B repeats it with ``tracer.py``
installed in both processes; the spans of the two processes are merged
here into the per-layer metrics.  ``X_ns_per_event`` is the summed
*self* time of the layer's spans under append requests of the load and
paced phases, divided by the events those phases appended; per-query
figures are means over the probe queries (the concurrent probe in
``live_rw``).  ``trace.ingest_sum_ratio`` / ``trace.query_sum_ratio``
compare the sum of all parts (client, waits, every server layer) with
the traced end-to-end time; they must lie in [0.9, 1.1].
"""

from __future__ import annotations

import json
import os
import statistics
from bisect import bisect_right

from . import tracer as T
from .scenario import WORK, BenchmarkError, Scenario, percentile

_APPEND_OP = 0x02  # frames.OP_APPEND_BATCH

#: Which layer each server span name is booked under on the ingest side
#: (every wrapped name appears exactly once, so the parts sum to the
#: whole request).
_INGEST_LAYERS = {
    "net.server.handle_self_ns_per_event": ("net.server.handle_binary",),
    "net.frames.decode_ns_per_event": ("net.frames.decode",),
    "core.stream.append_self_ns_per_event": ("core.stream.append",),
    "core.split.ingest_self_ns_per_event": ("core.split.ingest",
                                            "core.split.seal"),
    "ooo.manager.insert_self_ns_per_event": ("ooo.manager.insert",
                                             "ooo.manager.flush_queue"),
    "ooo.logfile.append_ns_per_event": ("ooo.logfile.append",),
    "index.tab_tree.append_self_ns_per_event": ("index.tab_tree.append",),
    "index.lsm.insert_ns_per_event": ("index.lsm.insert",),
    # Late inserts read, decode and rewrite old leaves; that work is
    # booked to the layer that does it, on the ingest side.
    "events.pax.encode_ns_per_event": ("events.pax.encode",
                                       "events.pax.decode"),
    "compression.compress_ns_per_event": ("compression.compress",
                                          "compression.decompress"),
    "storage.layout.write_self_ns_per_event": ("storage.layout.write",
                                               "storage.layout.update",
                                               "storage.layout.read"),
    "simdisk.write_ns_per_event": ("simdisk.write", "simdisk.read"),
}


def _requests(client_threads: list) -> list:
    """One record per client request that got a response: the caller's
    span (append/query/ack), its submit span and the response."""
    found = []
    for entry in client_threads:
        spans = entry["spans"]
        for span in spans:
            if span[T.NAME] != "net.client.submit" or len(span) < 6:
                continue  # not a request, or it never got its response
            response = span[5]
            parent = spans[span[T.PARENT]] if span[T.PARENT] >= 0 else span
            found.append({
                "kind": parent[T.NAME],
                "start": parent[T.START],
                "end": parent[T.START] + parent[T.DUR],
                "sent": span[T.START] + span[T.DUR],
                "request_bytes": span[T.TAG][1],
                "response_start": response[0],
                "response_end": response[0] + response[1],
                "response_bytes": response[2],
                "events": parent[T.TAG] if parent[T.NAME] == "net.client.append"
                else 0,
            })
    found.sort(key=lambda r: r["start"])
    return found


def _root_tables(threads: list, accept) -> list:
    """``(root_span, {name: Σ self ns}, {name: count}, {name: Σ integer
    tags})`` for every root span accepted, in start order."""
    out = []
    for entry in threads:
        spans = entry["spans"]
        own = T.self_times(spans)
        root = T.roots_of(spans)
        tables: dict[int, tuple] = {}
        for index, span in enumerate(spans):
            r = root[index]
            table = tables.get(r)
            if table is None:
                if not accept(spans[r]):
                    tables[r] = table = False
                else:
                    tables[r] = table = (spans[r], {}, {}, {})
            if table is False:
                continue
            name = span[T.NAME]
            parent = span[T.PARENT]
            if parent >= 0 and spans[parent][T.NAME] in T.FOLD_UNDER:
                name = spans[parent][T.NAME]
            table[1][name] = table[1].get(name, 0) + own[index]
            table[2][name] = table[2].get(name, 0) + 1
            if type(span[T.TAG]) is int:
                table[3][name] = table[3].get(name, 0) + span[T.TAG]
        out.extend(t for t in tables.values() if t is not False)
    out.sort(key=lambda t: t[0][T.START])
    return out


def _sum_tables(tables: list) -> tuple[dict, dict]:
    total: dict[str, int] = {}
    count: dict[str, int] = {}
    for _, sums, counts, _ in tables:
        for name, value in sums.items():
            total[name] = total.get(name, 0) + value
        for name, value in counts.items():
            count[name] = count.get(name, 0) + value
    return total, count


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def derive(server: list, client: list, scenario: Scenario) -> dict:
    """Per-layer metrics from the merged spans of the traced pass."""
    out: dict[str, float] = {}
    wp = scenario.wp
    phases = scenario.phases
    requests = _requests(client)

    # ------------------------------------------------------------ ingest
    window = (phases["load"][0], phases["paced"][1])
    inside = T.in_window(window)
    appends = [r for r in requests
               if r["kind"] == "net.client.append" and inside([0, r["start"]])]
    roots = _root_tables(
        server,
        lambda s: s[T.NAME] == "net.server.handle_binary"
        and s[T.TAG] == _APPEND_OP and inside(s),
    )
    if len(appends) != len(roots):
        raise BenchmarkError(
            f"trace mismatch: {len(appends)} appends sent, "
            f"{len(roots)} handled"
        )
    events = sum(r["events"] for r in appends)
    total, _ = _sum_tables(roots)
    booked = 0
    for metric, names in _INGEST_LAYERS.items():
        value = sum(total.get(name, 0) for name in names)
        booked += value
        out[metric] = value / events
    late_ns = total.get("index.tab_tree.ooo_insert", 0)
    booked += late_ns
    late_events = scenario.out["ooo.late_share"] * scenario.acked_events
    out["index.tab_tree.ooo_insert_us_per_late_event"] = (
        late_ns / 1e3 / late_events if late_events else 0.0
    )
    encode = sum(r["sent"] - r["start"] for r in appends)
    # Signed: the server may start on a frame while the client is still
    # inside sendall (a negative wait is overlap, and must cancel).
    waits = [root[0][T.START] - r["sent"] for r, root in zip(appends, roots)]
    back = sum(r["response_end"] - root[0][T.START] - root[0][T.DUR]
               for r, root in zip(appends, roots))
    end_to_end = sum(r["response_end"] - r["start"] for r in appends)
    out["net.client.encode_ns_per_event"] = encode / events
    out["net.server.wait_ns_per_event"] = sum(max(0, w) for w in waits) / events
    out["net.server.ack_return_ns_per_event"] = back / events
    out["net.bytes_in_per_event"] = (
        sum(r["request_bytes"] for r in appends) / events
    )
    # Client part + wait + every *booked* server layer + ack return over
    # the traced end-to-end time: 1 when every span under an append
    # request is booked to exactly one reported layer and the k-th
    # request sent is the k-th handled.
    out["trace.ingest_sum_ratio"] = (
        (encode + sum(waits) + booked + back) / end_to_end
    )
    seals = T.spans_named(server, "core.split.seal", window)
    out["core.split.seal_ms_mean"] = _mean(s[T.DUR] / 1e6 for s in seals)
    kevents = events / 1e3
    writes = T.spans_named(server, "storage.layout.write", window)
    out["storage.blocks_written_per_kevent"] = (
        sum(1 for s in writes if s[T.TAG] == 1) / kevents
    )
    updates = T.spans_named(server, "storage.layout.update", window)
    out["storage.block_updates_per_kevent"] = (
        sum(s[T.TAG] or 0 for s in updates) / kevents
    )
    disk = T.spans_named(server, "simdisk.write", window)
    out["simdisk.writes_per_kevent"] = len(disk) / kevents
    out["simdisk.random_write_share"] = (
        sum(1 for s in disk if s[T.TAG][1] == 0) / len(disk) if disk else 0.0
    )
    packed = T.spans_named(server, "compression.compress", window)
    out["compression.ratio"] = (
        sum(s[T.TAG][1] for s in packed) / sum(s[T.TAG][0] for s in packed)
        if packed else 0.0
    )

    # ----------------------------------------------------------- queries
    queries = [r for r in requests if r["kind"] == "net.client.query"]
    handled = _root_tables(
        server,
        lambda s: s[T.NAME] == "net.server.handle_json"
        and s[T.TAG] == "query",
    )
    log = scenario.query_log
    if not len(queries) == len(handled) == len(log):
        raise BenchmarkError(
            f"trace mismatch: {len(log)} queries issued, {len(queries)} "
            f"answered, {len(handled)} handled"
        )
    probe = T.in_window(phases["paced" if wp["live"] else "probe"])
    rows = [(q, r, h) for q, r, h in zip(log, queries, handled)
            if probe([0, r["start"]])]
    by_kind: dict[str, list] = {}
    for row in rows:
        by_kind.setdefault(row[0].kind, []).append(row)

    def per_query(kinds, *names) -> float:
        chosen = [row for kind in kinds for row in by_kind.get(kind, [])]
        return _mean(
            sum(row[2][1].get(name, 0) for name in names) / 1e3
            for row in chosen
        )

    every = tuple(by_kind)
    out["query.parser.parse_us"] = per_query(every, "query.parser.parse")
    out["query.planner.plan_us"] = per_query(every, "query.planner.plan")
    out["query.planner.run_self_us_filter"] = per_query(
        ("filter",), "query.planner.run")
    out["net.server.query_handle_self_us"] = per_query(
        ("select",), "net.server.handle_json")
    out["index.tab_tree.agg_read_self_us"] = per_query(
        ("agg", "group"), "index.tab_tree.agg_read")
    out["index.tab_tree.filter_read_self_us"] = per_query(
        ("filter",), "index.tab_tree.leaf_slices")
    out["index.tab_tree.select_read_self_us"] = per_query(
        ("select",), "index.tab_tree.leaf_slices", "index.tab_tree.time_travel")
    out["simdisk.read_us_per_query"] = per_query(every, "simdisk.read")
    q_total, q_count = _sum_tables([row[2] for row in rows])
    blocks = q_count.get("storage.layout.read", 0)
    out["storage.layout.read_self_us_per_block"] = (
        q_total.get("storage.layout.read", 0) / 1e3 / blocks if blocks else 0.0
    )
    out["storage.blocks_read_per_query"] = blocks / len(rows) if rows else 0.0
    probe_window = phases["paced" if wp["live"] else "probe"]
    events_read = sum(row[2][3].get("events.pax.decode", 0) for row in rows)
    out["events.pax.decode_ns_per_event_read"] = (
        q_total.get("events.pax.decode", 0) / events_read if events_read else 0.0
    )
    out["compression.decompress_ns_per_event_read"] = (
        q_total.get("compression.decompress", 0) / events_read
        if events_read else 0.0
    )
    selects = by_kind.get("select", [])
    out["net.client.result_decode_us"] = _mean(
        (r["end"] - r["response_start"]) / 1e3 for _, r, _ in selects
    )
    returned = sum(q.hi - q.lo for q, _, _ in selects)
    out["net.bytes_out_per_result_row"] = (
        sum(r["response_bytes"] for _, r, _ in selects) / returned
        if returned else 0.0
    )
    plans = [s for s in T.spans_named(server, "query.planner.plan",
                                      probe_window)]
    out["query.plan_row_share"] = (
        sum(1 for s in plans if s[T.TAG] == "row") / len(plans)
        if plans else 0.0
    )
    known = {name for names in _INGEST_LAYERS.values() for name in names} | {
        "net.server.handle_json", "query.parser.parse", "query.planner.plan",
        "query.planner.run", "index.tab_tree.agg_read",
        "index.tab_tree.leaf_slices", "index.tab_tree.time_travel",
    }
    parts = sum(
        (r["sent"] - r["start"])
        + (h[0][T.START] - r["sent"])
        + sum(value for name, value in h[1].items() if name in known)
        + (r["response_start"] - h[0][T.START] - h[0][T.DUR])
        + (r["end"] - r["response_start"])
        for _, r, h in rows
    )
    out["trace.query_sum_ratio"] = (
        parts / sum(r["end"] - r["start"] for _, r, _ in rows) if rows else 0.0
    )
    obs = scenario.server_stats.get("obs", {})
    counters = obs.get("counters", {})
    columnar = sum(1 for q in log if q.kind in ("filter", "select")) or 1
    out["index.tab_tree.leaves_scanned_per_query"] = (
        counters.get("planner.leaves_scanned", 0) / columnar
    )
    out["index.tab_tree.leaves_skipped_per_query"] = (
        counters.get("planner.leaves_skipped", 0) / columnar
    )
    out["sub.hub.queue_depth_max"] = (
        obs.get("histograms", {}).get("sub.queue_depth", {}).get("max", 0)
    )

    # ----------------------------------------------------- subscriptions
    out["sub.hub.subscribe_ms"] = _mean(
        s[T.DUR] / 1e6 for s in T.spans_named(server, "sub.hub.subscribe")
    )
    sends = T.spans_named(server, "sub.push.send")
    out["sub.push.send_us_per_batch"] = _mean(s[T.DUR] / 1e3 for s in sends)
    pushed = _root_tables(server, lambda s: s[T.NAME] == "sub.push.encode")
    pushed_events = sum(root[T.TAG] for root, *_ in pushed)
    out["sub.push.encode_ns_per_event"] = (
        sum(sum(sums.values()) for _, sums, *_ in pushed) / pushed_events
        if pushed_events else 0.0
    )
    paced = phases["paced"]
    taps = T.spans_named(server, "core.stream.append", paced)
    starts = [s[T.START] for s in taps]
    lags = []
    for send in T.spans_named(server, "sub.push.send", paced):
        if send[T.TAG] != scenario.live_sub_id:
            continue  # a replay window's push, not the live tail's
        k = bisect_right(starts, send[T.START]) - 1
        if k >= 0:
            done = taps[k][T.START] + taps[k][T.DUR]
            lags.append(max(0, send[T.START] - done) / 1e6)
    out["sub.hub.tap_to_send_ms_p50"] = percentile(lags, 0.5)
    consumed = _root_tables(client,
                            lambda s: s[T.NAME] == "sub.client.batches")
    c_total, _ = _sum_tables(consumed)
    decoded = sum(
        s[T.TAG] or 0 for s in T.spans_named(client, "sub.client.decode")
    )
    out["sub.client.decode_ns_per_event"] = (
        (c_total.get("sub.client.batches", 0)
         + c_total.get("sub.client.decode", 0)) / decoded if decoded else 0.0
    )
    out["sub.ack_rtt_ms_p50"] = percentile(
        [(r["response_end"] - r["start"]) / 1e6 for r in requests
         if r["kind"] == "sub.client.ack"], 0.5
    )

    # ---------------------------------------------------------- recovery
    copies = wp["recovery_copies"]
    for metric, name in (
        ("recovery.tlb_s", "recovery.tlb"),
        ("recovery.tree_flank_s", "recovery.tree_flank"),
        ("recovery.log_replay_s", "recovery.log_replay"),
        ("recovery.secondary_rebuild_s", "recovery.secondary_rebuild"),
    ):
        spans = T.spans_named(client, name, phases["crash"])
        out[metric] = sum(s[T.DUR] for s in spans) / 1e9 / copies
    return out


def traced_run(data, log) -> tuple[dict, int, int]:
    """Both passes of ``--trace 1``; returns (values, attempted, failed)."""
    plain = Scenario(data, setup_repeats=1, tap_price=True, log=log)
    plain.run()
    recorder = T.Tracer()
    T.install_client(recorder)
    traced = Scenario(data, traced=True, setup_repeats=1, log=log)
    traced.run()
    with open(traced.server_trace_path) as fh:
        server = json.load(fh)["threads"]
    os.remove(traced.server_trace_path)
    client = json.loads(json.dumps(recorder.export()))["threads"]
    values = dict(traced.out)
    values.update(plain.out)  # the stopwatch metrics come untraced
    values.update(derive(server, client, traced))
    values["trace.overhead_pct"] = 100.0 * (
        plain.out["client.raw.ingest_eps"]
        / traced.out["client.raw.ingest_eps"] - 1.0
    )
    path = os.path.join(WORK, f"trace-{data.workload}.json")
    with open(path, "w") as fh:
        json.dump({
            "workload": data.workload, "seed": data.seed,
            "fields": ["name", "start_ns", "duration_ns", "parent", "tag"],
            "phases": traced.phases, "server": server, "client": client,
        }, fh, separators=(",", ":"))
    log(f"spans written to {os.path.relpath(path)}")
    for scenario in (plain, traced):
        for failure in scenario.failures:
            log(f"FAILED: {failure}")
    return (values, plain.attempted + traced.attempted,
            plain.failed + traced.failed)
