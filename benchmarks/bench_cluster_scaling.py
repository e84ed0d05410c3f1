"""Cluster ingest scaling and wire throughput.

Not a paper figure — ChronicleDB is a single-node system; this measures
the repo's own cluster layer (`repro.cluster`) in two ways:

**Scaling (simulated clocks).**  One stream is striped over 1/2/4
in-process shards with :class:`TimeWindowPlacement`; every node runs on
its own simulated HDD/SSD cost model, so cluster ingest time is the
*slowest node's* simulated time.  The quantity to eyeball is how close
2 and 4 shards come to 2x and 4x.  Simulated time only charges the
storage engine, so the sim metrics stay bit-identical across machines —
they are the gated ones.

**Wire ingest (wall clock).**  Four ``python -m repro.net`` subprocess
shards, real sockets, columnar client batches (``ColumnarEvents`` in,
PAX-encoded frames out, per-shard fan-out pipelined).  Absolute wall
events/s are machine-bound and never gated here; the wire's gate is
``ingest_eps`` of ``benchmarks/e2e``.
"""

import gc
import random
import time

from benchmarks.common import report_rows
from repro import ChronicleConfig, ColumnarEvents, CpuCostModel, SimulatedClock
from repro.cluster import Cluster, TimeWindowPlacement
from repro.cluster.client import ClusterClient
from repro.cluster.node import ProcessClusterNode
from repro.cluster.placement import ShardMap, ShardSpec
from repro.events import Event, EventSchema

EVENTS = 48_000
CLIENT_BATCH = 1_024
SHARD_COUNTS = (1, 2, 4)
#: Stripe width in event-time units; events are 1 unit apart.
WINDOW = 512
SCHEMA = EventSchema.of("a", "b")

# Wall-clock wire bench: 4 subprocess shards, one stream.
WIRE_SHARDS = 4
#: Columnar batches sized for the frame hot path.
WIRE_EVENTS = 192_000
WIRE_BATCH = 131_072
WIRE_WINDOW = 16_384
#: Leaf/macro sizing for the nodes — ingest-tuned (large leaves
#: amortize seals).
WIRE_NODE_ARGS = ("--lblock-size", "262144", "--macro-size", "8388608")
WIRE_REPS = 3


def make_events(n=None, seed=42):
    rng = random.Random(seed)
    return [
        Event.of(t, rng.gauss(0.0, 1.0), float(t % 100))
        for t in range(n if n is not None else EVENTS)
    ]


# ----------------------------------------------------- simulated scaling


def measure(events, num_shards):
    """(simulated seconds, wall seconds, per-node sim seconds)."""
    config = ChronicleConfig(
        data_disk="hdd", log_disk="ssd", cost_model=CpuCostModel()
    )
    with Cluster(
        num_shards=num_shards,
        replication_factor=0,
        policy=TimeWindowPlacement(WINDOW),
        config=config,
        clock_factory=SimulatedClock,
    ) as cluster:
        client = cluster.client()
        client.create_stream("bench", SCHEMA)
        started = time.perf_counter()
        for i in range(0, len(events), CLIENT_BATCH):
            client.append_batch("bench", events[i : i + CLIENT_BATCH])
        client.flush()
        wall = time.perf_counter() - started
        node_times = [
            cluster.node_at(spec.primary).db.devices.clock.now
            for spec in cluster.shard_map.shards
        ]
        client.close()
    return max(node_times), wall, node_times


def run_cluster_scaling():
    events = make_events()
    results = []
    base_eps = None
    for num_shards in SHARD_COUNTS:
        simulated, wall, node_times = measure(events, num_shards)
        sim_eps = len(events) / simulated
        if base_eps is None:
            base_eps = sim_eps
        results.append(
            {
                "shards": num_shards,
                "sim_s": round(simulated, 4),
                "sim_eps": round(sim_eps),
                "scaling": round(sim_eps / base_eps, 2),
                "node_imbalance": round(
                    max(node_times) / (sum(node_times) / len(node_times)), 3
                ),
                "wall_s": round(wall, 2),
                "wall_eps": round(len(events) / wall),
            }
        )
    return results


# ------------------------------------------------------ wall-clock wire


def _start_wire_nodes():
    """The subprocess topology plus a routed client for it."""
    nodes = [
        ProcessClusterNode(f"wire-{i}", extra_args=WIRE_NODE_ARGS).start()
        for i in range(WIRE_SHARDS)
    ]
    shard_map = ShardMap(
        [ShardSpec(i, node.endpoint) for i, node in enumerate(nodes)],
        TimeWindowPlacement(WIRE_WINDOW),
    )
    client = ClusterClient(shard_map)
    client.create_stream("bench", SCHEMA)
    return nodes, client


def _wire_rep(client, offset):
    """Append ``WIRE_EVENTS`` fresh events starting at ``offset``;
    events/s.

    Fresh, strictly increasing timestamps keep every repetition on the
    in-order fast path instead of re-inserting old timestamps through
    the out-of-order queue.
    """
    timestamps = list(range(offset, offset + WIRE_EVENTS))
    columns = [
        [float(t % 97) for t in timestamps],
        [float(t % 100) for t in timestamps],
    ]
    batches = [
        ColumnarEvents(
            timestamps[i : i + WIRE_BATCH],
            [c[i : i + WIRE_BATCH] for c in columns],
        )
        for i in range(0, WIRE_EVENTS, WIRE_BATCH)
    ]
    appended = 0
    started = time.perf_counter()
    for sub in batches:
        appended += client.append_batch("bench", sub)
    wall = time.perf_counter() - started
    assert appended == WIRE_EVENTS, (appended, WIRE_EVENTS)
    return WIRE_EVENTS / wall


def run_wire_ingest():
    """Best-of-``WIRE_REPS`` wall-clock ingest at ``WIRE_SHARDS`` shards."""
    # gc.freeze keeps whatever heap the suite runner accumulated before
    # this bench out of cyclic-GC passes during the timed loops.
    gc.collect()
    gc.freeze()
    nodes, client = _start_wire_nodes()
    try:
        with client:
            binary_eps = max(
                _wire_rep(client, rep * WIRE_EVENTS)
                for rep in range(WIRE_REPS)
            )
    finally:
        for node in nodes:
            node.stop()
        gc.unfreeze()
    return {"shards": WIRE_SHARDS, "binary_eps": round(binary_eps)}


# ------------------------------------------------------------------ tests


def test_cluster_scaling(benchmark):
    results = benchmark.pedantic(run_cluster_scaling, rounds=1, iterations=1)

    rows = [
        [
            row["shards"],
            row["sim_s"],
            f"{row['sim_eps']:,}",
            f"{row['scaling']:.2f}x",
            row["node_imbalance"],
            f"{row['wall_eps']:,}",
        ]
        for row in results
    ]
    report_rows(
        "cluster_scaling",
        f"Cluster ingest scaling — {EVENTS // 1000}K events, "
        f"time-window stripe ({WINDOW}), client batch {CLIENT_BATCH}",
        ["shards", "sim s", "sim events/s", "scaling", "imbalance",
         "wall events/s"],
        rows,
        notes=(
            "scaling = simulated throughput vs 1 shard; each node has an "
            "independent simulated HDD/SSD clock, cluster time = slowest "
            "node.  Wall numbers include the wire protocol and are not "
            "gated."
        ),
        meta={
            "events": EVENTS,
            "window": WINDOW,
            "client_batch": CLIENT_BATCH,
            "replication_factor": 0,
        },
    )

    # The bench gate: it completes, reports every shard count, and
    # sharding does not *lose* throughput (>= 1.2x by 4 shards is far
    # below the ~4x ideal but catches a broken fan-out outright).
    assert [row["shards"] for row in results] == list(SHARD_COUNTS)
    assert results[-1]["scaling"] >= 1.2


def test_wire_ingest(benchmark):
    result = benchmark.pedantic(run_wire_ingest, rounds=1, iterations=1)

    report_rows(
        "cluster_wire_ingest",
        f"Wire ingest — {WIRE_SHARDS} subprocess shards, wall clock",
        ["events", "client batch", "events/s"],
        [[WIRE_EVENTS, WIRE_BATCH, f"{result['binary_eps']:,}"]],
        notes=(
            f"Best of {WIRE_REPS} repetitions: columnar batches over the "
            "frame protocol into ingest-tuned leaves.  Wall rates are "
            "machine-bound and not gated."
        ),
        meta=result,
    )


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--skip-wire", action="store_true",
        help="run only the simulated scaling leg",
    )
    args = parser.parse_args()
    fake = type("B", (), {"pedantic": staticmethod(
        lambda fn, rounds=1, iterations=1: fn()
    )})()
    test_cluster_scaling(fake)
    if not args.skip_wire:
        test_wire_ingest(fake)
