"""Constants of the end-to-end benchmark: one place, no logic.

``BENCHMARK.json`` may only carry the keys the driver's contract names,
so everything else the issue wanted recorded there — the reference
calibration, the default seeds, the flush policy, the workload
parameter sets — lives here and is quoted in ``README.md``.

All event and query counts are given at ``scale`` = 1, which is what a
run with ``--seconds REF_SECONDS`` measures; every other ``--seconds``
value scales the *work* linearly (fixed work, never fixed time), so
stored bytes, recovery input and query ranges are identical in every
run at the same ``--seconds``.
"""

from __future__ import annotations

#: ``--seconds`` value at which ``scale`` is 1 (== ``run_seconds`` in
#: BENCHMARK.json).  The measured phases of a scale-1 run take about
#: this long on the reference host.
REF_SECONDS = 16

#: Median of the calibration loop on the builder's box, in ms.  Every
#: time-derived end-to-end metric is reported as if the host ran the
#: loop in exactly this time (see ``calibrate.py``).  Fixed once; a
#: later PR must not touch it.
CAL_REF_MS = 1.55

#: Seed used when none is given; any other ``--seed`` is an unseen seed
#: (``repeat.py`` uses 101, 102, ...).
DEFAULT_SEED = 20170321

#: Stated once, as the database-storage sheet asks: the program under
#: test never calls fsync.  Every device write is an ``os.pwrite`` that
#: has returned before the append is acknowledged, so SIGKILL (which
#: leaves the OS page cache intact) preserves exactly what the store
#: considers written; the open TAB+-tree leaf of the active split is
#: memory-only by design and is the only thing a crash may lose.
FLUSH_POLICY = (
    "no fsync anywhere; every device write is a pwrite that returns "
    "before the ack, so SIGKILL preserves exactly what the store "
    "considers written; the open leaf of the active split is "
    "memory-only by design"
)

#: Event layout: t:int64 + a,b,c,d:float64.
FIELDS = ("a", "b", "c", "d")
USER_BYTES_PER_EVENT = 40
T_STEP = 10

#: Streams on the server: the measured one and the warm-up scratch.
STREAM = "s"
SCRATCH = "warm"

#: Warm-up performed inside the timed set-up (imports and caches hot).
WARM_BATCHES = 64
WARM_QUERY_REPEATS = 3
WARM_REPLAY_BATCHES = 16

#: How many times a run sets the server up; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: Load phase: pipeline depth and number of equal-work windows.
PIPELINE_DEPTH = 4
LOAD_WINDOWS = 32

#: The paced, probe and delivery phases are cut into ROUNDS slices each
#: and run round-robin (see ``scenario.py``).
ROUNDS = 8

#: Paced phase: one batch every ``pace_ms`` (a workload parameter), in
#: PACE_SEGMENTS segments with calibration samples taken in the
#: scheduled gaps between segments.
PACE_SEGMENTS = ROUNDS

#: Subscription shape used everywhere (live tail and replay).
SUB_CREDITS = 8
DELIVERY_WINDOWS = 32

#: Probe windows, in events.  ``q_agg`` covers a third of the store.
FILTER_WINDOW_EVENTS = 6_000
SELECT_WINDOW_EVENTS = 60
FILTER_SELECTIVITY = 0.10
GROUP_BUCKETS = 12

#: Calibration samples per phase (a sample = fastest of three loops).
CAL_SAMPLES_PER_PHASE = 40

#: Scale used by the traced run relative to the untraced one.
TRACE_SCALE_DIVISOR = 4
SMOKE_SECONDS = 0.32  # scale 0.02


def _workload(**kw):
    base = dict(
        batch=1024,
        late_fraction=0.0,
        late_bulk_every=10_000,
        late_exp_scale=0.1,
        splits=1,
        secondary={},
        paced_batches=640,
        paced_batch=256,
        pace_ms=8.0,
        probe={"agg": 200, "filter": 60, "select": 60, "group": 0},
        delivery_events=640_000,
        live=False,
        recovery_copies=5,
    )
    base.update(kw)
    return base


#: The four parameter sets.  Names are fixed by the issue.
WORKLOADS = {
    "bulk_inorder": _workload(
        load_events=1_000_000,
        why=(
            "Fig. 14 shape: big in-order batches into one split; frame "
            "decode, run routing, TAB+ append_run, PAX, zlib, macro/TLB and "
            "device do the work; ooo, LSM, query and sub are bypassed"
        ),
    ),
    "late_small": _workload(
        load_events=140_000,
        batch=128,
        late_fraction=0.05,
        splits=8,
        secondary={"b": "lsm"},
        # A late bulk stalls the server for 150-400 ms (queue flush, LSM
        # merge).  At the other workloads' 8 ms the backlog behind each
        # stall holds a third of all samples and the p50 measures how
        # fast the host drains it; at 16 ms it holds a few per cent.
        paced_batches=480,
        pace_ms=16.0,
        paced_batch=128,
        probe={"agg": 300, "filter": 300, "select": 300, "group": 0},
        delivery_events=160_000,
        why=(
            "same tree and storage the other way: 128-event batches, 5% "
            "late in bulks, 8 splits, LSM secondary; per-event ooo, "
            "WAL+mirror, update_block, seals, log replay pay; taxes of bulk "
            "shortcuts show"
        ),
    ),
    "query_mix": _workload(
        load_events=600_000,
        probe={"agg": 400, "filter": 150, "select": 150, "group": 100},
        why=(
            "read-dominant on a quiesced store: parser, planner, columnar "
            "scan, tree descents, read_block, decompress, PAX decode and "
            "JSON result frames dominate; the ingest chain is the control"
        ),
    ),
    "live_rw": _workload(
        load_events=700_000,
        # Beside a saturating reader an append waits for the (unfair)
        # stream lock and the GIL: its latency is spread almost evenly
        # over 0-65 ms.  So the open loop paces at 60 ms (anything faster
        # only measures its own backlog), and takes 400 samples because
        # the median of so flat a distribution converges slowly.
        paced_batches=400,
        pace_ms=60.0,
        probe={"agg": 0, "filter": 0, "select": 0, "group": 0},
        delivery_events=0,
        live=True,
        why=(
            "writer + live-tail subscriber + reader on one stream lock and "
            "one GIL: the hub tap is on the write path and queries contend "
            "with appends, so a quiesced-read gain that taxes writers shows"
        ),
    ),
}

#: In ``live_rw`` the concurrent probe draws its windows from the most
#: recent RECENT_EVENTS acknowledged events.
RECENT_EVENTS = 200_000

END_TO_END = (
    # name, unit, better, bound, cpu_share.
    #
    # Bounds come from REPEATABILITY.md: about three times the spread the
    # metric shows between identical runs, capped at the contract's 0.25.
    #
    # cpu_share is the exponent of the calibration normalisation: the
    # share of the metric's time that is CPU work and so scales with the
    # host's speed (0 = a count, not normalised).  A paced round trip is
    # about half CPU (encode + server chain, ~0.9 ms of ~2.2 ms in the
    # per-layer table) and half thread hand-offs and socket wake-ups that
    # the calibration loop does not see; normalising it fully
    # over-corrects whenever the host is busy (spread 8 % raw -> 22 %),
    # not at all leaves 25 % on other days, the half power was never the
    # worst of the three in four campaigns of ten runs per workload.
    ("setup_s", "s", "lower", 0.25, 1.0),
    ("ingest_eps", "events/s", "higher", 0.25, 1.0),
    ("append_ack_p50_ms", "ms", "lower", 0.25, 0.5),
    ("delivery_lag_p50_ms", "ms", "lower", 0.25, 0.5),
    ("q_agg_p50_ms", "ms", "lower", 0.25, 1.0),
    ("q_filter_p50_ms", "ms", "lower", 0.25, 1.0),
    ("q_select_p50_ms", "ms", "lower", 0.25, 1.0),
    ("delivery_eps", "events/s", "higher", 0.25, 1.0),
    ("recovery_s", "s", "lower", 0.25, 1.0),
    ("stored_bytes_per_user_byte", "ratio", "lower", 0.05, 0.0),
    ("server_peak_rss_mb", "MiB", "lower", 0.05, 0.0),
)
CPU_SHARE = {name: share for name, _, _, _, share in END_TO_END}

#: Every per-layer metric of the traced run: (name, unit, better).
PER_LAYER = (
    ("net.client.encode_ns_per_event", "ns", "lower"),
    ("net.server.wait_ns_per_event", "ns", "lower"),
    ("net.frames.decode_ns_per_event", "ns", "lower"),
    ("net.server.handle_self_ns_per_event", "ns", "lower"),
    ("net.server.ack_return_ns_per_event", "ns", "lower"),
    ("net.bytes_in_per_event", "count", "lower"),
    ("net.bytes_out_per_result_row", "count", "lower"),
    ("core.stream.append_self_ns_per_event", "ns", "lower"),
    ("core.split.ingest_self_ns_per_event", "ns", "lower"),
    ("core.split.seals", "count", "lower"),
    ("core.split.seal_ms_mean", "ms", "lower"),
    ("ooo.manager.insert_self_ns_per_event", "ns", "lower"),
    ("ooo.queue_flushes", "count", "lower"),
    ("ooo.late_share", "ratio", "lower"),
    ("ooo.logfile.append_ns_per_event", "ns", "lower"),
    ("ooo.log_bytes_per_user_byte", "ratio", "lower"),
    ("index.tab_tree.append_self_ns_per_event", "ns", "lower"),
    ("index.tab_tree.ooo_insert_us_per_late_event", "us", "lower"),
    ("index.lsm.insert_ns_per_event", "ns", "lower"),
    ("index.tab_tree.agg_read_self_us", "us", "lower"),
    ("index.tab_tree.filter_read_self_us", "us", "lower"),
    ("index.tab_tree.select_read_self_us", "us", "lower"),
    ("index.tab_tree.leaves_scanned_per_query", "count", "lower"),
    ("index.tab_tree.leaves_skipped_per_query", "count", "higher"),
    ("events.pax.encode_ns_per_event", "ns", "lower"),
    ("events.pax.decode_ns_per_event_read", "ns", "lower"),
    ("compression.compress_ns_per_event", "ns", "lower"),
    ("compression.decompress_ns_per_event_read", "ns", "lower"),
    ("compression.ratio", "ratio", "lower"),
    ("storage.layout.write_self_ns_per_event", "ns", "lower"),
    ("storage.blocks_written_per_kevent", "count", "lower"),
    ("storage.block_updates_per_kevent", "count", "lower"),
    ("storage.layout.read_self_us_per_block", "us", "lower"),
    ("storage.blocks_read_per_query", "count", "lower"),
    ("simdisk.write_ns_per_event", "ns", "lower"),
    ("simdisk.read_us_per_query", "us", "lower"),
    ("simdisk.bytes_written_per_user_byte", "ratio", "lower"),
    ("simdisk.writes_per_kevent", "count", "lower"),
    ("simdisk.random_write_share", "ratio", "lower"),
    ("query.parser.parse_us", "us", "lower"),
    ("query.planner.plan_us", "us", "lower"),
    ("query.planner.run_self_us_filter", "us", "lower"),
    ("query.rows_examined_per_row_returned", "ratio", "lower"),
    ("query.plan_row_share", "ratio", "lower"),
    ("net.server.query_handle_self_us", "us", "lower"),
    ("net.client.result_decode_us", "us", "lower"),
    ("sub.hub.subscribe_ms", "ms", "lower"),
    ("sub.hub.tap_to_send_ms_p50", "ms", "lower"),
    ("sub.hub.spills", "count", "lower"),
    ("sub.hub.queue_depth_max", "count", "lower"),
    ("sub.push.encode_ns_per_event", "ns", "lower"),
    ("sub.push.send_us_per_batch", "us", "lower"),
    ("sub.client.decode_ns_per_event", "ns", "lower"),
    ("sub.ack_rtt_ms_p50", "ms", "lower"),
    ("sub.ingest_slowdown_x", "ratio", "lower"),
    ("recovery.tlb_s", "s", "lower"),
    ("recovery.tree_flank_s", "s", "lower"),
    ("recovery.log_replay_s", "s", "lower"),
    ("recovery.secondary_rebuild_s", "s", "lower"),
    ("recovery.bytes_read", "count", "lower"),
    ("recovery.events_lost", "count", "lower"),
    ("client.cal_ms", "ms", "lower"),
    ("client.raw.setup_s", "s", "lower"),
    ("client.raw.ingest_eps", "events/s", "higher"),
    ("client.raw.append_ack_p50_ms", "ms", "lower"),
    ("client.raw.delivery_lag_p50_ms", "ms", "lower"),
    ("client.raw.q_agg_p50_ms", "ms", "lower"),
    ("client.raw.q_filter_p50_ms", "ms", "lower"),
    ("client.raw.q_select_p50_ms", "ms", "lower"),
    ("client.raw.delivery_eps", "events/s", "higher"),
    ("client.raw.recovery_s", "s", "lower"),
    ("client.ingest_mean_eps", "events/s", "higher"),
    ("client.append_ack_p99_ms", "ms", "lower"),
    ("client.delivery_lag_p99_ms", "ms", "lower"),
    ("client.q_agg_p99_ms", "ms", "lower"),
    ("client.q_filter_p95_ms", "ms", "lower"),
    ("client.q_select_p95_ms", "ms", "lower"),
    ("client.q_group_p50_ms", "ms", "lower"),
    ("client.generator_late_p99_ms", "ms", "lower"),
    ("client.checkpoint_ms", "ms", "lower"),
    ("client.probe_samples_min", "count", "higher"),
    ("trace.ingest_sum_ratio", "ratio", "lower"),
    ("trace.query_sum_ratio", "ratio", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)
