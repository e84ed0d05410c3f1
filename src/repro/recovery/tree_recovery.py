"""TAB+-tree right-flank recovery (paper, Section 6.2).

After TLB recovery, every flushed tree node is readable but the right
flank (one open node per level) existed only in memory.  Because the
tree allocates node ids *eagerly*, each lost flank node corresponds to an
allocated-but-unwritten id, and the last flushed node of its level names
that id through its forward sibling link.  Recovery therefore:

1. scans the written nodes for *dangling* forward links — a ``next_id``
   that maps to no stored block.  Exactly one exists per level: the last
   flushed node pointing at the lost flank node;
2. rebuilds the entries of every index flank node by walking the
   predecessor chain of the level below — the paper's "all nodes of
   level i belonging to the same parent are iterated utilizing the
   previous neighbor linking";
3. re-summarizes those children from their durable contents, so
   out-of-order updates that reached disk are reflected.

Events that existed only in the in-memory open leaf are lost with the
crash, as in the paper's design; out-of-order events are re-applied from
the write-ahead and mirror logs afterwards (Section 6.3).

The scan is a *header pass*: one forward walk over the macro blocks
checks every C-block's CRC, but inflates only the 40-byte node header of
a leaf (links, LSN) — index nodes decode in full, because split repair
needs their entries.  A leaf's events are decoded only where they are
summarized: the flank's children, repair candidates and the open leaf's
predecessor.  Tree recovery is thus O(stored nodes) header reads plus
O(fanout × height) full decodes.  Reaching O(height) would need the
allocation watermark persisted, a format change noted in DESIGN.md.
"""

from __future__ import annotations

from repro import obs
from repro.errors import CorruptBlockError, RecoveryError, StorageError
from repro.index.entry import IndexEntry
from repro.index.node import (
    MAGIC_INDEX,
    MAGIC_LEAF,
    NO_NODE,
    NODE_HEADER,
    NODE_HEADER_SIZE,
    IndexNode,
    LeafNode,
)
from repro.obs import OBS
from repro.storage.addressing import NULL_ADDR
from repro.storage.cblock import decode_cblock
from repro.storage.constants import SUPERBLOCK_SIZE
from repro.storage.walker import iter_cblocks


def _stored_addr(layout, block_id: int) -> int:
    """Address of the stored block for this id; ``NULL_ADDR`` if none.

    Reserved flank slots are mapped to the placeholder before their node
    is written, and ids past the TLB were never mapped: both count as
    unwritten.
    """
    tlb = layout.tlb
    if block_id >= tlb.next_slot and block_id not in tlb.pending:
        return NULL_ADDR
    return layout._resolve(block_id)


class StoredLeaf:
    """A stored leaf as the header pass saw it: links and LSN, no events.

    :func:`_content` decodes the full leaf on the few paths that need
    its events (flank summaries, repair candidates, the open leaf's
    predecessor).
    """

    __slots__ = ("node_id", "prev_id", "next_id", "lsn", "full")
    level = 0

    def __init__(self, node_id: int, prev_id: int, next_id: int, lsn: int):
        self.node_id = node_id
        self.prev_id = prev_id
        self.next_id = next_id
        self.lsn = lsn
        self.full = None


def _read_node(tree, node_id: int):
    """Fully decode the stored block as a tree node; ``None`` for
    tombstones and garbage."""
    if OBS.enabled:
        OBS.counter("recovery.nodes_inflated").inc()
    try:
        data = tree.layout.read_block(node_id)
    except StorageError:
        return None
    try:
        return tree.codec.decode(data)
    except Exception:
        return None


def _classify(tree, block_id: int, original_len: int, payload: bytes):
    """The scan record of a stored C-block: a :class:`StoredLeaf`, a full
    :class:`IndexNode` (``_find_repairs`` needs its entries), or ``None``
    for anything that is not a node."""
    layout = tree.layout
    if original_len != layout.lblock_size:
        return None  # a tombstone, or not an L-block at all
    try:
        header = layout.codec.decompress_prefix(
            payload, original_len, NODE_HEADER_SIZE
        )
    except Exception:
        return None
    if len(header) < NODE_HEADER_SIZE:
        return None
    magic, count, _, _, lsn, node_id, prev_id, next_id = NODE_HEADER.unpack(header)
    if magic == MAGIC_LEAF and count <= tree.codec.leaf_capacity:
        if OBS.enabled:
            OBS.counter("recovery.nodes_header_only").inc()
        return StoredLeaf(node_id, prev_id, next_id, lsn)
    if magic != MAGIC_INDEX:
        return None
    if OBS.enabled:
        OBS.counter("recovery.nodes_inflated").inc()
    try:
        return tree.codec.decode(layout._decompress(payload, original_len))
    except Exception:
        return None


def _scan_nodes(tree) -> tuple[dict[int, object], list[int], set[int], set[int]]:
    """Classify every allocated id: ``(nodes, unwritten, occupied, orphans)``.

    * ``nodes`` — ids with a stored tree node: a :class:`StoredLeaf` per
      leaf, a decoded :class:`IndexNode` per index node;
    * ``unwritten`` — ids with no stored block (reserved flank slots and
      ids whose write the crash swallowed);
    * ``occupied`` — ids whose block exists but is not a node (tombstones
      from an earlier recovery);
    * ``orphans`` — right halves of *half-applied* splits.  A split
      writes the new right node R first (with ``R.prev = L``) and only
      then rewrites L with ``L.next = R``; a committed chain therefore
      satisfies ``nodes[X.prev].next == X`` for every stored node X.  An
      R whose predecessor still skips it was mid-split at crash time and
      is rolled back: the stale L retains the full pre-split contents,
      and the WAL re-applies the event that triggered the split.

    One forward walk over the macro blocks reads every C-block in file
    order.  A block stands for its id only where the TLB maps that id to
    the block's address; ids the walk did not settle (a reference entry,
    a block still in the open macro) are read through the TLB instead.
    """
    layout = tree.layout
    nodes: dict[int, object] = {}
    occupied: set[int] = set()
    for addr, framed in iter_cblocks(
        layout.device, layout.lblock_size, layout.macro_size, SUPERBLOCK_SIZE
    ):
        try:
            block_id, original_len, payload = decode_cblock(framed)
        except CorruptBlockError:
            continue  # a stale fragment; the TLB read below decides
        if block_id >= layout.next_id or _stored_addr(layout, block_id) != addr:
            continue
        node = _classify(tree, block_id, original_len, payload)
        if node is None:
            occupied.add(block_id)
        else:
            nodes[block_id] = node
    unwritten: list[int] = []
    for node_id in range(layout.next_id):
        if node_id in nodes or node_id in occupied:
            continue
        if _stored_addr(layout, node_id) == NULL_ADDR:
            unwritten.append(node_id)
            continue
        node = _read_node(tree, node_id)
        if node is None:
            occupied.add(node_id)
        else:
            nodes[node_id] = node
    nodes = {node_id: nodes[node_id] for node_id in sorted(nodes)}
    return nodes, unwritten, occupied, _find_orphans(nodes)


def _find_orphans(nodes: dict[int, object]) -> set[int]:
    """Right halves of half-applied splits (see :func:`_scan_nodes`)."""
    orphans: set[int] = set()
    for node_id, node in nodes.items():
        prev = nodes.get(node.prev_id)
        if (
            prev is not None
            and prev.level == node.level
            and prev.next_id != node_id
            and prev.next_id == node.next_id
        ):
            # The predecessor's forward link bypasses this node straight
            # to this node's own successor: the split that created it
            # never committed (the left half was not rewritten).
            orphans.add(node_id)
    return orphans


def _content(tree, node):
    """The full node behind a scan record; a leaf is decoded at most once."""
    if not isinstance(node, StoredLeaf):
        return node
    if node.full is None:
        node.full = _read_node(tree, node.node_id)
        if node.full is None:
            raise RecoveryError(f"leaf {node.node_id} no longer decodes")
    return node.full


def _find_repairs(
    tree, nodes: dict[int, object], orphans: set[int]
) -> list[tuple[int, int, int, int, int]]:
    """Committed splits whose parent-entry update the crash swallowed.

    A split commits once the truncated left page L is durable, but the
    parent update (replace L's entry with two narrower entries) may still
    be lost: it rides on a later in-place parent rewrite.  The surviving
    state is then unambiguous: the right half R is referenced by no index
    entry, while its predecessor L *is* referenced — by an entry that
    provably covers more than L's durable content (a split strictly
    reduces the left page's count).  Recovery redoes the lost update.

    Returns ``(level, right_id, left_id, parent_id, entry_index)`` tuples,
    sorted bottom-up.
    """
    entry_at: dict[int, tuple[int, int]] = {}
    for node_id, node in nodes.items():
        if node_id in orphans or node.level == 0:
            continue
        for i, entry in enumerate(node.entries):
            entry_at[entry.child_id] = (node_id, i)
    left_of = {
        node.next_id: node_id
        for node_id, node in nodes.items()
        if node_id not in orphans and node.next_id != NO_NODE
    }
    repairs: list[tuple[int, int, int, int, int]] = []
    for node_id, node in nodes.items():
        if node_id in orphans or node_id in entry_at:
            continue
        left_id = left_of.get(node_id)
        if left_id is None or left_id not in entry_at:
            continue  # covered by the rebuilt flank, not a lost update
        parent_id, entry_index = entry_at[left_id]
        entry = nodes[parent_id].entries[entry_index]
        fresh = _summarize(tree, nodes[left_id])
        if entry.count > fresh.count or entry.t_max > fresh.t_max:
            repairs.append((node.level, node_id, left_id, parent_id, entry_index))
    repairs.sort()
    return repairs


def _redo_parent_entry(
    tree,
    nodes: dict[int, object],
    orphans: set[int],
    right_id: int,
    left_id: int,
    parent_id: int,
    entry_index: int,
) -> None:
    """Re-apply a crash-lost ``_replace_parent_entry`` on the live tree.

    Runs after the flank is rebuilt so the tree's own split machinery can
    absorb a parent overflow (the cascade may climb into the flank).
    """
    path: list[tuple[object, int]] = []
    cursor = parent_id
    while True:
        hit = None
        for fnode in tree.flank:
            for i, entry in enumerate(fnode.entries):
                if entry.child_id == cursor:
                    hit = (fnode, i)
                    break
            if hit is not None:
                break
        if hit is not None:
            path.append(hit)
            break
        found = None
        for node_id, node in nodes.items():
            if node_id in orphans or node.level == 0:
                continue
            for i, entry in enumerate(node.entries):
                if entry.child_id == cursor:
                    found = (node_id, i)
                    break
            if found is not None:
                break
        if found is None:
            raise RecoveryError(
                f"no parent chain above node {parent_id} during split repair"
            )
        path.append((tree.buffer.get(found[0]), found[1]))
        cursor = found[0]
    path.reverse()
    path.append((tree.buffer.get(parent_id), entry_index))
    left_entry = _summarize(tree, tree.buffer.get(left_id))
    right_entry = _summarize(tree, tree.buffer.get(right_id))
    tree._replace_parent_entry(path, left_entry, right_entry)
    # Unlike a live split (which repartitions an entry's existing
    # coverage), the redone update can *widen* the parent beyond what its
    # own ancestors recorded — the lost entry covered events the
    # grandparent never saw.  Re-summarize each ancestor's entry for the
    # child below it, bottom-up, or descents (WAL redo included) stop
    # short of the reattached subtree.
    for depth in range(len(path) - 2, -1, -1):
        ancestor = path[depth][0]
        child = path[depth + 1][0]
        if not tree._is_flank(ancestor):
            # Re-fetch through the buffer: the write-throughs above may
            # have evicted the frame holding this object.
            ancestor = tree.buffer.get(ancestor.node_id)
        for i, entry in enumerate(ancestor.entries):
            if entry.child_id == child.node_id:
                ancestor.entries[i] = _summarize(
                    tree, tree.buffer.get(child.node_id)
                )
                if not tree._is_flank(ancestor):
                    tree.buffer.mark_dirty(ancestor.node_id)
                    tree.buffer.write_through(ancestor.node_id)
                break


def _build_prev_map(nodes: dict[int, object], orphans: set[int]) -> dict[int, int]:
    """``node_id -> true previous sibling``, derived from forward links.

    Forward links are the committed source of truth (a split makes the
    left page durable before anything references the right page); stored
    ``prev`` pointers may lag by one crash-lost heal write.  Nodes
    nothing points at keep their stored ``prev`` (skipping orphans).
    """
    prev_map: dict[int, int] = {}
    for node_id, node in nodes.items():
        if node_id not in orphans and node.next_id in nodes:
            prev_map[node.next_id] = node_id
    for node_id, node in nodes.items():
        if node_id not in prev_map:
            prev = node.prev_id
            while prev in orphans:
                prev = nodes[prev].prev_id
            prev_map[node_id] = prev
    return prev_map


def _find_dangling_links(
    tree, nodes: dict[int, object], orphans: set[int], occupied: set[int]
) -> dict[int, tuple[int, object]]:
    """Returns ``level -> (lost flank id, its predecessor)``.

    Exactly one dangling forward link exists per level: the last flushed
    node pointing at the lost in-memory flank node.  Orphan right halves
    are excluded — a crash mid-split briefly leaves both halves pointing
    at the same successor.  A link at a tombstoned id (an earlier
    recovery filled the slot) is dangling too: the slot is released so
    the rebuilt flank node can claim its id again.
    """
    layout = tree.layout
    dangling: dict[int, tuple[int, object]] = {}
    for node_id, node in nodes.items():
        if node_id in orphans:
            continue
        next_id = node.next_id
        if next_id == NO_NODE:
            continue
        if next_id in nodes and next_id not in orphans:
            continue
        if node.level in dangling:
            raise RecoveryError(
                f"two nodes at level {node.level} have dangling forward links"
            )
        if next_id in occupied:
            layout.release_block(next_id)
        dangling[node.level] = (next_id, node)
    return dangling


def _summarize(tree, node) -> IndexEntry:
    node = _content(tree, node)
    if isinstance(node, LeafNode):
        return IndexEntry.summarize_leaf(
            node.node_id,
            node.timestamps,
            [node.columns[i] for i in tree.codec.indexed_positions],
            extended=tree.codec.extended_aggregates,
        )
    return IndexEntry.combine(node.node_id, node.entries)


def recover_tree_flank(tree) -> None:
    """Rebuild *tree*'s in-memory right flank from the recovered layout."""
    with obs.span("recovery.tree_flank"):
        _recover_tree_flank(tree)


def _recover_tree_flank(tree) -> None:
    layout = tree.layout
    nodes, unwritten, occupied, orphans = _scan_nodes(tree)
    dangling = _find_dangling_links(tree, nodes, orphans, occupied)
    prev_map = _build_prev_map(nodes, orphans)
    repairs = _find_repairs(tree, nodes, orphans)
    repaired_rights = {right_id for _, right_id, _, _, _ in repairs}
    max_lsn = max((node.lsn for node in nodes.values()), default=0)
    # Account for referenced-but-lost ids beyond the recovered watermark.
    for gap, node in dangling.values():
        max_lsn = max(max_lsn, node.lsn)
        while layout.next_id <= gap:
            unwritten.append(layout.allocate_id())
    claimed = {gap for gap, _ in dangling.values()}

    def fresh_id() -> int:
        # Prefer reusing unreferenced unwritten ids so the positional TLB
        # has no permanent holes.
        for candidate in unwritten:
            if candidate not in claimed:
                claimed.add(candidate)
                return candidate
        block_id = layout.allocate_id()
        claimed.add(block_id)
        return block_id

    # --- open leaf -------------------------------------------------------
    if 0 in dangling:
        leaf_id, last_leaf = dangling.pop(0)
        tree.leaf = LeafNode(
            node_id=leaf_id,
            prev_id=last_leaf.node_id,
            columns=[[] for _ in range(tree.schema.arity)],
        )
        tree.last_flushed_leaf = (last_leaf.node_id, _content(tree, last_leaf).t_max)
    else:
        tree.leaf = LeafNode(
            node_id=fresh_id(),
            columns=[[] for _ in range(tree.schema.arity)],
        )
        tree.last_flushed_leaf = None

    # --- index flank, bottom-up -----------------------------------------
    tree.flank = []
    last_child = (
        nodes.get(tree.last_flushed_leaf[0]) if tree.last_flushed_leaf else None
    )
    level = 1
    while last_child is not None:
        if level in dangling:
            node_id, predecessor = dangling.pop(level)
            prev_id = predecessor.node_id
            covered_until = predecessor.entries[-1].child_id
            # A committed-but-unparented right half belongs to the stored
            # parent (the repair below reinstates its entry), not to the
            # rebuilt flank: extend the exclusive bound past it.
            while (
                covered_until in nodes
                and nodes[covered_until].next_id in repaired_rights
            ):
                covered_until = nodes[covered_until].next_id
        else:
            node_id = fresh_id()
            prev_id = NO_NODE
            covered_until = None
        children = []
        walker = last_child
        while walker is not None and walker.node_id != covered_until:
            children.append(walker)
            max_lsn = max(max_lsn, walker.lsn)
            prev = prev_map[walker.node_id]
            if prev == NO_NODE:
                walker = None
            else:
                walker = nodes.get(prev)
                if walker is None:
                    raise RecoveryError("broken previous-sibling chain")
        children.reverse()
        tree.flank.append(
            IndexNode(
                node_id=node_id,
                level=level,
                prev_id=prev_id,
                entries=[_summarize(tree, child) for child in children],
            )
        )
        last_child = nodes.get(prev_id) if prev_id != NO_NODE else None
        level += 1

    # Gaps at levels the rebuilt flank never reached (should not happen in
    # a consistent log) and unreferenced unwritten ids are tombstoned so
    # the positional TLB can advance past their slots.
    for gap, _ in dangling.values():
        claimed.discard(gap)
    for candidate in unwritten:
        if candidate not in claimed:
            layout.write_tombstone(candidate)

    # Re-reserve the flank ids so the positional TLB keeps flowing while
    # the reconstructed nodes sit in memory (matching normal operation).
    tlb = layout.tlb
    for node in [tree.leaf] + tree.flank:
        if node.node_id >= tlb.next_slot and node.node_id not in tlb.pending:
            layout.reserve_block(node.node_id)

    tree.lsn = max_lsn

    # A rebuilt flank node can sit exactly at capacity (its flush write
    # was the one the crash swallowed).  Live operation flushes the
    # moment a flank node fills, so re-run those flushes now — otherwise
    # the first replayed split that touches the node overflows it.
    level = 1
    while level <= len(tree.flank):
        while tree.flank[level - 1].count >= tree.codec.index_capacity:
            tree._flush_flank_node(level)
        level += 1

    # Redo crash-lost parent-entry updates of committed splits (the tree
    # is operational now, so a parent overflow cascades normally).
    for _, right_id, left_id, parent_id, entry_index in repairs:
        _redo_parent_entry(
            tree, nodes, orphans, right_id, left_id, parent_id, entry_index
        )

    tree.event_count = sum(
        entry.count for node in tree.flank for entry in node.entries
    )
    if tree.flank and tree.flank[-1].entries:
        tree.min_t = tree.flank[-1].entries[0].t_min
    else:
        tree.min_t = None
