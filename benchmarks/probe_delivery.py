"""In-process timing of both stages of a subscription push.

Loads the load phase of a ``benchmarks/e2e`` workload
(``benchmarks/e2e/inputs.py``) into a fresh on-disk store, then replays
the stream page by page as the hub's replay pump does — no socket, no
client thread, no tracer.  It prints, in ns per delivered event:

* server: :func:`repro.query.columnar.read_events` of a page (the pump's
  ``limit`` = batch + 1) and :func:`repro.net.frames.encode_batch_payload`
  of its batch, once over *buffered* leaves (the tree's node buffers
  hold every leaf) and once over *cold* leaves (node buffers emptied
  before the pass, so every leaf is read as a lazy ``LeafView``);
* client: ``decode_batch_payload`` of each payload, and
  ``ColumnarEvents.materialize()`` plus the e2e consumer's
  ``[event.t for event in batch]``, with the garbage collector off.

Each figure is the minimum over ``--rounds`` passes.  Run from the
repository root::

    python benchmarks/probe_delivery.py --workload query_mix --scale 0.3
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from benchmarks.e2e import inputs as gen  # noqa: E402
from benchmarks.e2e import params as P  # noqa: E402
from repro import ChronicleConfig, ChronicleDB, ColumnarEvents, EventSchema  # noqa: E402
from repro.events.serializer import PaxCodec  # noqa: E402
from repro.net import frames  # noqa: E402
from repro.query.columnar import read_events  # noqa: E402

_HUGE = 2**62


def load(directory: str, workload: str, scale: float, seed: int):
    data = gen.generate(workload, scale, seed)
    db = ChronicleDB(directory, ChronicleConfig(
        secondary_indexes=data.wp["secondary"],
        time_split_interval=data.wp["time_split_interval"],
        buffer_capacity=1 << 20,  # every flushed leaf stays buffered
    ))
    stream = db.create_stream(P.STREAM, EventSchema.of(*P.FIELDS))
    for timestamps, columns in gen.batches(data, 0, data.n_load,
                                           data.wp["batch"]):
        stream.append_columns(timestamps, columns)
    for split in stream.splits:
        split.tree.buffer.flush_dirty()
    return db, stream


def evict(stream) -> None:
    """Empty every split's node buffer (all frames are clean)."""
    for split in stream.splits:
        split.tree.buffer.flush_dirty()
        split.tree.buffer._frames.clear()


def server_pass(stream, batch: int):
    """``(read_ns, encode_ns, events, payloads)`` of one full replay."""
    schema_bytes = frames.schema_bytes_of(stream.schema)
    codec = PaxCodec(stream.schema)
    read_ns = encode_ns = events = 0
    payloads = []
    t = -_HUGE
    while True:
        start = time.perf_counter_ns()
        page = read_events(stream, t, _HUGE, limit=batch + 1)
        middle = time.perf_counter_ns()
        chunk = page[:batch]
        payload = frames.encode_batch_payload(P.STREAM, schema_bytes, codec,
                                              chunk)
        read_ns += middle - start
        encode_ns += time.perf_counter_ns() - middle
        events += len(chunk)
        payloads.append(payload)
        if len(page) <= batch:
            return read_ns, encode_ns, events, payloads
        t = page.timestamps[batch]  # timestamps are distinct in e2e loads


def client_pass(payloads):
    """``(decode_ns, materialize_ns)`` of consuming every payload."""
    decode_ns = build_ns = 0
    for payload in payloads:
        start = time.perf_counter_ns()
        _, _, timestamps, columns = frames.decode_batch_payload(payload)
        middle = time.perf_counter_ns()
        batch = ColumnarEvents(timestamps, columns).materialize()
        stamps = [event.t for event in batch]
        build_ns += time.perf_counter_ns() - middle
        decode_ns += middle - start
        del stamps, batch
    return decode_ns, build_ns


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="query_mix")
    parser.add_argument("--scale", type=float, default=0.3)
    parser.add_argument("--seed", type=int, default=P.DEFAULT_SEED)
    parser.add_argument("--batch", type=int, default=1024)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as directory:
        db, stream = load(directory, args.workload, args.scale, args.seed)
        try:
            best = {}

            def keep(name, ns, events):
                value = ns / events
                best[name] = min(best.get(name, value), value)

            gc.disable()
            try:
                for state in ("buffered", "cold"):
                    for _ in range(args.rounds):
                        if state == "cold":
                            evict(stream)
                        read_ns, encode_ns, n, payloads = server_pass(
                            stream, args.batch)
                        keep(f"server {state} read_events", read_ns, n)
                        keep(f"server {state} encode_batch_payload",
                             encode_ns, n)
                for _ in range(args.rounds):
                    decode_ns, build_ns = client_pass(payloads)
                    keep("client decode_batch_payload", decode_ns, n)
                    keep("client materialize + consumer loop", build_ns, n)
            finally:
                gc.enable()
            print(f"{args.workload} scale {args.scale}: {n} events, "
                  f"{args.batch}-row pages, min of {args.rounds}")
            for name, value in best.items():
                print(f"  {name:40s} {value:8.1f} ns/event")
        finally:
            db.close()


if __name__ == "__main__":
    main()
