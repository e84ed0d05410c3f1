"""Reference ingestion: Algorithm 3 walked one event at a time.

The engine ingests every append as a batch routed per chronological run
(:meth:`EventStream.append_batch`); tests drive the same events through
:func:`append_one` and require identical trees, logs and device bytes.
"""

from __future__ import annotations

from repro.events.event import ColumnarEvents, Event


def append_one(stream, event: Event) -> None:
    """Route *event* with the stream's rules, feed the split's trackers,
    compare with the flank boundary, then append a one-row run at the
    flank — or queue and mirror-log a one-row segment, flushing a full
    queue."""
    schema = stream.schema
    if stream.config.validate_events or len(event.values) != schema.arity:
        schema.validate_values(event.values)
    if stream.tiers.tiered_count or stream.tiers.expired:
        stream._reject_tiered((event.t,))
    split = stream._route(event.t)
    for name, tracker in split._trackers.items():
        tracker.add(float(event.values[schema.index_of(name)]))
    row = ColumnarEvents([event.t], [[value] for value in event.values])
    manager, tree = split.manager, split.tree
    boundary = tree.flank_boundary_t
    if boundary is None or event.t > boundary:
        tree.append_run(row)
        manager.flank_inserts += 1
    else:
        tree.clock.sorted_inserts += 1
        manager.queue.add_run(row)
        manager.mirror.append_many(row)
        manager.queued_inserts += 1
        if manager.queue.is_full:
            manager.flush_queue()
    if split.sealed:
        split.summary = tree.summary()
    stream.appended += 1
    for subscriber in stream.subscribers:
        subscriber(event)
