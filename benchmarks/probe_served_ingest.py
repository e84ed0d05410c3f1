"""In-process timing of the server's append handler on e2e batches.

Generates the load phase of a ``benchmarks/e2e`` workload
(``benchmarks/e2e/inputs.py``), encodes every batch once as the binary
client would, and replays the frames through
``ChronicleServer.handle_binary`` against a fresh on-disk store — no
socket, no client, no tracer.  It prints:

* the process CPU per event of a plain replay;
* from a second replay on a second fresh store, with counting wrappers:
  the leaf-statistics kernel calls (``RunStatistics.of``), the tc folds
  (``SplitCorrelation.fold``) and the leaf flushes per batch, and the
  self time per event of the layers the e2e trace books ingest under
  (a span's time minus the spans nested in it).

A per-layer row of the traced e2e run is worth citing only when this
direct timing agrees with it.  Run from the repository root::

    python benchmarks/probe_served_ingest.py --workload bulk_inorder --scale 0.1
"""

from __future__ import annotations

import argparse
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
from repro.compression.zlibc import ZlibCompressor  # noqa: E402
from repro.core.split import TimeSplit  # noqa: E402
from repro.core.stream import EventStream  # noqa: E402
from repro.events.serializer import PaxCodec  # noqa: E402
from repro.index.correlation import SplitCorrelation  # noqa: E402
from repro.index.entry import RunStatistics  # noqa: E402
from repro.index.secondary import SecondaryIndex  # noqa: E402
from repro.index.tab_tree import TabTree  # noqa: E402
from repro.net import frames  # noqa: E402
from repro.net.server import ChronicleServer  # noqa: E402
from repro.ooo.manager import OutOfOrderManager  # noqa: E402
from repro.storage.layout import ChronicleLayout  # noqa: E402

#: (owner, method, layer): the e2e trace's ingest layers, by the name
#: its table books them under.
LAYERS = [
    (ChronicleServer, "handle_binary", "net.server.handle_self"),
    (EventStream, "append_columns", "core.stream.append_self"),
    (TimeSplit, "ingest_run", "core.split.ingest_self"),
    (TimeSplit, "seal", "core.split.ingest_self"),
    (OutOfOrderManager, "insert_run", "ooo.manager.insert_self"),
    (OutOfOrderManager, "flush_queue", "ooo.manager.insert_self"),
    (TabTree, "append_run", "index.tab_tree.append_self"),
    (SecondaryIndex, "insert_run", "index.lsm.insert"),
    (PaxCodec, "encode_columns", "events.pax.encode"),
    (ZlibCompressor, "compress", "compression.compress"),
    (ChronicleLayout, "write_block", "storage.layout.write_self"),
    (ChronicleLayout, "append_block", "storage.layout.write_self"),
]
#: (owner, method, label): calls counted per batch.
COUNTED = [
    (RunStatistics, "of", "kernel"),
    (SplitCorrelation, "fold", "fold"),
    (TabTree, "_flush_leaf", "flush"),
]


def frames_of(workload: str, scale: float, seed: int):
    """The load phase's batches, encoded once, and the store config."""
    data = gen.generate(workload, scale, seed)
    schema = EventSchema.of(*P.FIELDS)
    codec, schema_bytes = PaxCodec(schema), frames.schema_bytes_of(schema)
    payloads = [
        frames.encode_batch_payload(P.STREAM, schema_bytes, codec,
                                    ColumnarEvents(timestamps, columns))
        for timestamps, columns in gen.batches(data, 0, data.n_load,
                                               data.wp["batch"])
    ]
    config = dict(secondary_indexes=data.wp["secondary"],
                  time_split_interval=data.wp["time_split_interval"])
    return schema, config, payloads, data.n_load


def replay(schema, config, payloads) -> int:
    """Process CPU ns of replaying *payloads* into a fresh store."""
    with tempfile.TemporaryDirectory() as directory:
        db = ChronicleDB(directory, ChronicleConfig(**config))
        db.create_stream(P.STREAM, schema)
        server = ChronicleServer(db)
        try:
            start = time.process_time_ns()
            for payload in payloads:
                op, answer = server.handle_binary(frames.OP_APPEND_BATCH, payload)
                if op != frames.OP_OK:
                    raise RuntimeError(frames.decode_json_payload(answer))
            return time.process_time_ns() - start
        finally:
            server.stop()
            db.close()


def instrumented(schema, config, payloads):
    """Replay with wrappers: call counts and per-layer self ns."""
    counts = {label: 0 for *_, label in COUNTED}
    self_ns = {layer: 0 for *_, layer in LAYERS}
    stack = []  # [layer, start_ns, child_ns]
    originals = []

    def timed(function, layer):
        def wrapper(*args, **kwargs):
            frame = [layer, time.perf_counter_ns(), 0]
            stack.append(frame)
            try:
                return function(*args, **kwargs)
            finally:
                stack.pop()
                spent = time.perf_counter_ns() - frame[1]
                self_ns[layer] += spent - frame[2]
                if stack:
                    stack[-1][2] += spent
        return wrapper

    def counted(function, label):
        def wrapper(*args, **kwargs):
            counts[label] += 1
            return function(*args, **kwargs)
        return wrapper

    def patch(owner, name, wrap, key):
        home = next(cls for cls in owner.__mro__ if name in cls.__dict__)
        originals.append((home, name, home.__dict__[name]))
        setattr(home, name, wrap(getattr(owner, name), key))

    for owner, name, layer in LAYERS:
        patch(owner, name, timed, layer)
    for owner, name, label in COUNTED:
        patch(owner, name, counted, label)
    try:
        replay(schema, config, payloads)
    finally:
        for owner, name, original in reversed(originals):
            setattr(owner, name, original)
    return counts, self_ns


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="bulk_inorder",
                        choices=sorted(P.WORKLOADS))
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=P.DEFAULT_SEED)
    args = parser.parse_args(argv)
    schema, config, payloads, events = frames_of(args.workload, args.scale,
                                                 args.seed)
    cpu_ns = replay(schema, config, payloads)
    counts, self_ns = instrumented(schema, config, payloads)
    batches = len(payloads)
    print(f"workload={args.workload} scale={args.scale} seed={args.seed} "
          f"events={events} batches={batches}")
    print(f"server_cpu_ns_per_event {cpu_ns / events:.1f}")
    for label, count in counts.items():
        print(f"{label}_calls {count} ({count / batches:.2f} per batch)")
    for layer, ns in self_ns.items():
        print(f"{layer}_ns_per_event {ns / events:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
