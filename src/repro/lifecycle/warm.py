"""Warm-tier migration: re-compress a sealed hot split, crash-safely.

The job is the WAL'd state machine of :mod:`repro.lifecycle.manifest`:

1. ``warm_begin``  — logged before any target bytes exist;
2. **copy**        — bulk-append the hot split's TAB+-tree, one leaf
   window at a time, into a fresh layout with the policy's heavier codec
   and larger macro blocks (each window is a chronological run of
   columns, so the warm tree builds at flank speed);
3. **verify**      — re-scan both trees and compare event-for-event;
4. **swap**        — seal the warm layout, then log ``warm_commit`` (the
   atomic switch: once durable, readers use the warm copy);
5. **truncate**    — drop the hot split's devices, log ``warm_done``.

A crash before the commit record leaves the hot split authoritative (the
partial warm device is deleted on recovery); a crash after it leaves the
warm split authoritative (recovery finishes the drop).  Either way the
events exist exactly once.
"""

from __future__ import annotations

from repro.errors import StorageError
from repro.events.event import ColumnarEvents
from repro.index.tab_tree import TabTree
from repro.lifecycle.tiers import WarmSplit
from repro.storage.layout import ChronicleLayout

_HUGE = 2**62


def warm_layout_params(config, policy) -> tuple[int, int]:
    """(lblock_size, macro_size) of the warm layout for this stream."""
    lblock = config.lblock_size * policy.warm_lblock_factor
    macro = config.macro_size * policy.warm_macro_factor
    # The layout requires macro % lblock == 0; round the macro up.
    macro = max(macro, lblock)
    macro = -(-macro // lblock) * lblock
    return lblock, macro


def copy_tree(source_tree, layout, schema, config) -> TabTree:
    """Bulk-copy every event of *source_tree* into a tree on *layout*:
    each leaf window of the scan path becomes one flank run."""
    tree = TabTree(
        layout,
        schema,
        indexed_attributes=config.indexed_attributes,
        lblock_spare=0.0,  # no out-of-order inserts ever reach warm
        buffer_capacity=config.buffer_capacity,
        extended_aggregates=config.extended_aggregates,
    )
    positions = range(schema.arity)
    for leaf, lo, hi in source_tree.leaf_slices(-_HUGE, _HUGE):
        tree.append_run(ColumnarEvents(
            leaf.timestamps[lo:hi], [leaf.column(p)[lo:hi] for p in positions]
        ))
    return tree


def verify_copy(source_tree, target_tree) -> None:
    """Event-for-event comparison of two trees; raises on any drift."""
    if source_tree.event_count != target_tree.event_count:
        raise StorageError(
            f"warm copy count mismatch: {target_tree.event_count} != "
            f"{source_tree.event_count}"
        )
    source = source_tree.time_travel(-_HUGE, _HUGE)
    target = target_tree.time_travel(-_HUGE, _HUGE)
    for position, (a, b) in enumerate(zip(source, target)):
        if a.t != b.t or a.values != b.values:
            raise StorageError(
                f"warm copy diverges at event {position}: {a} != {b}"
            )


def migrate_split_to_warm(stream, split, log, policy) -> WarmSplit:
    """Run the full copy→verify→swap→truncate machine for one split.

    *split* must be a sealed, time-bounded member of ``stream.splits``;
    on return it has been removed from the hot tier and its events are
    served by the returned :class:`WarmSplit`.
    """
    if not split.sealed:
        raise StorageError(f"split {split.index} is not sealed")
    if split.t_start is None or split.t_end is None:
        raise StorageError(f"split {split.index} has open time bounds")
    if split.manager.pending:
        raise StorageError(f"split {split.index} still has queued events")
    config = stream.config
    devices = stream.devices
    log.append(
        {
            "op": "warm_begin",
            "split": split.index,
            "t_start": split.t_start,
            "t_end": split.t_end,
        }
    )
    device = devices.warm_device(stream.name, split.index)
    if device.size:
        # Leftover bytes of an attempt that aborted before its rollback
        # was recovered; the new copy starts from scratch.
        device.truncate(0)
    lblock, macro = warm_layout_params(config, policy)
    layout = ChronicleLayout.create(
        device,
        lblock_size=lblock,
        macro_size=macro,
        compressor=policy.warm_codec,
        macro_spare=0.0,  # warm data is immutable; no update slack needed
    )
    tree = copy_tree(split.tree, layout, stream.schema, config)
    verify_copy(split.tree, tree)
    layout.seal(
        {
            "tree": tree.state_dict(),
            "t_start": split.t_start,
            "t_end": split.t_end,
            "tc_scores": split.tc_scores,
            "kind": split.kind,
            "tier": "warm",
        }
    )
    log.append(
        {"op": "warm_commit", "split": split.index, "events": tree.event_count}
    )
    devices.drop_split(stream.name, split.index)
    log.append({"op": "warm_done", "split": split.index})
    return WarmSplit(stream.name, split.index, stream.schema, config, devices)
