"""Span recorder for the traced run: wraps entry points from the outside.

No ``src/`` file is edited.  ``install_server`` (in the ``serve.py``
process) and ``install_client`` (in the generator) replace exactly the
entry points listed in ``SERVER_TARGETS`` / ``CLIENT_TARGETS`` with
recording wrappers.  A span is ``[name, start_ns, duration_ns, parent,
tag]``; spans are kept in memory, one list per thread (a span's parent is
always on its own thread), and written out once with :meth:`Tracer.dump`.
Clocks are ``time.perf_counter_ns`` — CLOCK_MONOTONIC, shared by both
processes — so client and server spans line up on one axis.

A layer's **self time** is its span's duration minus the part its child
spans cover.  Generators (``TabTree.leaf_slices``, ``time_travel``,
``SubscriptionHandle.batches``) are recorded by their *active* time: the
sum of the intervals in which the generator's own frame was running.

Requests are matched across the two processes by order: requests on one
connection execute in receipt order, so the k-th append (query) the
generator sent is the k-th the server handled — the sequence number is
the shared identifier.
"""

from __future__ import annotations

import importlib
import json
import threading
from time import perf_counter_ns

NAME, START, DUR, PARENT, TAG = range(5)


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: (thread name, span list) for every thread that recorded.
        self.threads: list[tuple[str, list]] = []

    def state(self):
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans, local.stack = [], []
            with self._lock:
                self.threads.append(
                    (threading.current_thread().name, local.spans)
                )
            return local.spans, local.stack

    # ----------------------------------------------------------- wrapping

    def wrap_call(self, function, name: str, pre=None, post=None):
        state = self.state

        def wrapper(*args, **kwargs):
            spans, stack = state()
            record = [name, 0, 0, stack[-1] if stack else -1,
                      pre(args) if pre is not None else None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = started = perf_counter_ns()
            try:
                result = function(*args, **kwargs)
            finally:
                record[DUR] = perf_counter_ns() - started
                stack.pop()
            if post is not None:
                post(record, args, result)
            return result

        wrapper.__wrapped__ = function
        return wrapper

    def wrap_generator(self, function, name: str):
        state = self.state

        def wrapper(*args, **kwargs):
            generator = function(*args, **kwargs)
            spans, stack = state()
            record = [name, 0, 0, -1, None]
            index = None
            try:
                while True:
                    if index is None:
                        index = len(spans)
                        record[PARENT] = stack[-1] if stack else -1
                        spans.append(record)
                        record[START] = perf_counter_ns()
                    stack.append(index)
                    resumed = perf_counter_ns()
                    try:
                        item = next(generator)
                    except StopIteration:
                        return
                    finally:
                        record[DUR] += perf_counter_ns() - resumed
                        stack.pop()
                    yield item
            finally:
                generator.close()

        wrapper.__wrapped__ = function
        return wrapper

    def install(self, targets) -> None:
        for module_name, owner_name, attribute, name, *extra in targets:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            options = extra[0] if extra else {}
            original = getattr(owner, attribute)
            if options.get("generator"):
                wrapped = self.wrap_generator(original, name)
            else:
                wrapped = self.wrap_call(
                    original, name, options.get("pre"), options.get("post")
                )
            setattr(owner, attribute, wrapped)
            # ``from x import f`` bindings made before the patch.
            for alias_module, alias_name in options.get("aliases", ()):
                setattr(importlib.import_module(alias_module), alias_name,
                        wrapped)

    # ------------------------------------------------------------- output

    def export(self) -> dict:
        with self._lock:
            return {
                "clock": "perf_counter_ns",
                "fields": ["name", "start_ns", "duration_ns", "parent", "tag"],
                "threads": [
                    {"thread": thread, "spans": list(spans)}
                    for thread, spans in self.threads
                ],
            }

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.export(), fh, separators=(",", ":"))


# ----------------------------------------------------------------- targets


def _tag_binary_op(args):
    return args[1]  # handle_binary(self, op, payload, channel)


def _tag_json_op(args):
    request = args[1]
    return request.get("op") if isinstance(request, dict) else None


def _tag_disk_write(args):
    disk, offset, data = args[0], args[1], args[2]
    return [len(data), 1 if offset == disk._head else 0]


def _tag_count_arg(args):
    return args[2]  # (self, data, count[, position])


def _post_compress(record, args, result):
    record[TAG] = [len(args[1]), len(result)]


def _post_plan(record, args, result):
    record[TAG] = result.kind


def _post_decode_count(record, args, result):
    record[TAG] = len(result[2])  # (stream, schema, timestamps, columns)


def _tag_event_count(args):
    return len(args[3])  # encode_batch_payload(stream, schema_bytes, codec, events)


def _tag_push_sub_id(args):
    # PushChannel.send(self, op, payload, corr_id=0): which subscription.
    op, payload = args[1], args[2]
    return int.from_bytes(payload[:8], "little") if op == 0x90 else None


def _tag_update_count(args):
    return len(args[1])  # update_blocks(self, updates)


SERVER_TARGETS = [
    ("repro.net.server", "ChronicleServer", "handle_binary",
     "net.server.handle_binary", {"pre": _tag_binary_op}),
    ("repro.net.server", "ChronicleServer", "handle_json_framed",
     "net.server.handle_json", {"pre": _tag_json_op}),
    ("repro.net.frames", None, "decode_batch_payload", "net.frames.decode",
     {"post": _post_decode_count}),
    ("repro.net.frames", None, "encode_batch_payload", "sub.push.encode",
     {"pre": _tag_event_count}),
    ("repro.net.aio", "PushChannel", "send", "sub.push.send",
     {"pre": _tag_push_sub_id}),
    ("repro.sub.hub", "SubscriptionHub", "subscribe", "sub.hub.subscribe"),
    ("repro.core.stream", "EventStream", "append_columns",
     "core.stream.append"),
    ("repro.core.split", "TimeSplit", "ingest_run", "core.split.ingest"),
    ("repro.core.split", "TimeSplit", "ingest", "core.split.ingest"),
    ("repro.core.split", "TimeSplit", "seal", "core.split.seal"),
    ("repro.ooo.manager", "OutOfOrderManager", "insert_run",
     "ooo.manager.insert"),
    ("repro.ooo.manager", "OutOfOrderManager", "insert", "ooo.manager.insert"),
    ("repro.ooo.manager", "OutOfOrderManager", "flush_queue",
     "ooo.manager.flush_queue"),
    ("repro.ooo.logfile", "EventLog", "append_many", "ooo.logfile.append"),
    ("repro.ooo.logfile", "EventLog", "append", "ooo.logfile.append"),
    ("repro.index.tab_tree", "TabTree", "append_run", "index.tab_tree.append"),
    ("repro.index.tab_tree", "TabTree", "append", "index.tab_tree.append"),
    ("repro.index.tab_tree", "TabTree", "ooo_insert",
     "index.tab_tree.ooo_insert"),
    ("repro.index.tab_tree", "TabTree", "ooo_insert_if_newer",
     "index.tab_tree.ooo_insert"),
    ("repro.index.lsm", "LsmIndex", "insert", "index.lsm.insert"),
    ("repro.index.lsm", "LsmIndex", "flush", "index.lsm.insert"),
    ("repro.index.tab_tree", "TabTree", "aggregate_components",
     "index.tab_tree.agg_read"),
    ("repro.index.tab_tree", "TabTree", "grouped_components",
     "index.tab_tree.agg_read"),
    ("repro.index.tab_tree", "TabTree", "leaf_slices",
     "index.tab_tree.leaf_slices", {"generator": True}),
    ("repro.index.tab_tree", "TabTree", "time_travel",
     "index.tab_tree.time_travel", {"generator": True}),
    ("repro.events.serializer", "PaxCodec", "encode_columns",
     "events.pax.encode"),
    ("repro.events.serializer", "PaxCodec", "decode_columns",
     "events.pax.decode", {"pre": _tag_count_arg}),
    ("repro.storage.columns", "ColumnSlicer", "timestamps",
     "events.pax.decode", {"pre": _tag_count_arg}),
    ("repro.storage.columns", "ColumnSlicer", "column", "events.pax.decode"),
    ("repro.compression.zlibc", "ZlibCompressor", "compress",
     "compression.compress", {"post": _post_compress}),
    ("repro.compression.zlibc", "ZlibCompressor", "decompress",
     "compression.decompress"),
    ("repro.storage.layout", "ChronicleLayout", "append_block",
     "storage.layout.write"),
    ("repro.storage.layout", "ChronicleLayout", "write_block",
     "storage.layout.write", {"pre": lambda args: 1}),
    ("repro.storage.layout", "ChronicleLayout", "update_block",
     "storage.layout.update", {"pre": lambda args: 1}),
    ("repro.storage.layout", "ChronicleLayout", "update_blocks",
     "storage.layout.update", {"pre": _tag_update_count}),
    ("repro.storage.layout", "ChronicleLayout", "read_block",
     "storage.layout.read"),
    ("repro.storage.prefetch", "SequentialBlockReader", "get",
     "storage.layout.read"),
    ("repro.simdisk.disk", "SimulatedDisk", "write", "simdisk.write",
     {"pre": _tag_disk_write}),
    ("repro.simdisk.disk", "SimulatedDisk", "read", "simdisk.read"),
    ("repro.query.parser", None, "parse", "query.parser.parse",
     {"aliases": [("repro.net.server", "parse_query"),
                  ("repro.query.planner", "parse")]}),
    ("repro.query.planner", None, "build_plan", "query.planner.plan",
     {"post": _post_plan}),
    ("repro.query.planner", None, "run_plan", "query.planner.run"),
]


def _pre_submit(args):
    # _submit(self, op, payload): frame bytes as the client sends them.
    return [args[1], len(args[2]) + 12]


def _pre_dispatch(args):
    # _dispatch(self, op, corr_id, payload), on the reader thread: find
    # the request span this response answers (pushes answer none).
    client, op, corr_id, payload = args[0], args[1], args[2], args[3]
    future = client._pending.get(corr_id)
    return [op, len(payload) + 12, getattr(future, "_e2e_request", None)]


def _post_dispatch(record, args, result):
    # Keep the response's timing and size on the request span itself
    # (a sixth element), so matching needs no search afterwards.
    request, record[TAG][2] = record[TAG][2], None
    if request is not None:
        request.append([record[START], record[DUR], record[TAG][1]])


CLIENT_TARGETS = [
    ("repro.net.client", "BinaryChronicleClient", "append_batch_async",
     "net.client.append", {"pre": lambda args: len(args[2])}),
    ("repro.net.client", "BinaryChronicleClient", "query",
     "net.client.query"),
    ("repro.net.client", "BinaryChronicleClient", "_submit",
     "net.client.submit", {"pre": _pre_submit}),
    ("repro.net.client", "BinaryChronicleClient", "_dispatch",
     "net.client.dispatch", {"pre": _pre_dispatch, "post": _post_dispatch}),
    ("repro.net.client", "BinaryChronicleClient", "sub_ack_async",
     "sub.client.ack"),
    ("repro.sub.client", "SubscriptionHandle", "batches",
     "sub.client.batches", {"generator": True}),
    ("repro.net.frames", None, "decode_batch_payload", "sub.client.decode",
     {"post": _post_decode_count}),
    ("repro.recovery.tlb_recovery", None, "recover_tlb", "recovery.tlb"),
    ("repro.recovery.tree_recovery", None, "recover_tree_flank",
     "recovery.tree_flank"),
    ("repro.ooo.manager", "OutOfOrderManager", "recover",
     "recovery.log_replay"),
    ("repro.core.stream", "EventStream", "rebuild_secondary",
     "recovery.secondary_rebuild"),
]


def install_server(tracer: Tracer) -> None:
    tracer.install(SERVER_TARGETS)


def install_client(tracer: Tracer) -> None:
    tracer.install(CLIENT_TARGETS)
    # A request's future is created inside ``_submit`` and may be
    # resolved by the reader thread before ``_submit`` even returns, so
    # the link from response to request has to exist from the future's
    # birth: every future made while a submit span is open carries it.
    import repro.net.client as client_module

    class LinkedFuture(client_module.Future):
        def __init__(self):
            super().__init__()
            spans, stack = tracer.state()
            self._e2e_request = spans[stack[-1]] if stack else None

    client_module.Future = LinkedFuture
    # The consumer thread blocks in Queue.get between pushes: waiting,
    # not work.  Record it as a child span so it is not self time.
    import queue

    original = queue.Queue.get
    recorded = tracer.wrap_call(original, "wait")

    def get(self, *args, **kwargs):
        _, stack = tracer.state()
        if stack:
            return recorded(self, *args, **kwargs)
        return original(self, *args, **kwargs)

    queue.Queue.get = get


# ---------------------------------------------------------------- analysis


def self_times(spans: list) -> list:
    """Self time per span: duration minus what its children cover."""
    own = [span[DUR] for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            own[parent] -= span[DUR]
    return own


def roots_of(spans: list) -> list:
    root = [0] * len(spans)
    for index, span in enumerate(spans):
        parent = span[PARENT]
        root[index] = index if parent < 0 else root[parent]
    return root


#: Spans whose time belongs to the caller's layer (a codec call made by
#: the wire decoder is wire decode, not storage PAX work).
FOLD_UNDER = {"net.frames.decode", "sub.push.encode", "sub.client.decode"}


def spans_named(threads: list, name: str, window=None) -> list:
    """Every span called *name*, in start order, optionally only those
    starting inside ``window`` = (start_ns, end_ns)."""
    found = [
        span for entry in threads for span in entry["spans"]
        if span[NAME] == name
        and (window is None or window[0] <= span[START] < window[1])
    ]
    found.sort(key=lambda span: span[START])
    return found


def in_window(window):
    return lambda span: window[0] <= span[START] < window[1]
