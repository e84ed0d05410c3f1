"""TAB+-tree right-flank recovery (paper, Section 6.2).

After TLB recovery, every flushed tree node is readable but the right
flank (one open node per level) existed only in memory.  Because the
tree allocates node ids *eagerly*, each lost flank node corresponds to an
allocated-but-unwritten id, and the last flushed node of its level names
that id through its forward sibling link.  Recovery therefore:

1. finds the *dangling* forward link of every level — the last flushed
   node pointing at the lost flank node;
2. rebuilds the entries of every index flank node by walking the
   predecessor chain of the level below — the paper's "all nodes of
   level i belonging to the same parent are iterated utilizing the
   previous neighbor linking";
3. re-summarizes those children from their durable contents, so
   out-of-order updates that reached disk are reflected.

Events that existed only in the in-memory open leaf are lost with the
crash, as in the paper's design; out-of-order events are re-applied from
the write-ahead and mirror logs afterwards (Section 6.3).

Step 1 has two implementations (DESIGN.md, "File format versions"):

* **the flank walk** (format v2, O(height) reads).  A v2 TLB slot of a
  reserved flank id names the node's level and predecessor, so the lost
  flank ids whose slots were durable name their dangling links outright;
  a flank node flushed since the last TLB leaf is in the headers TLB
  recovery collected from that region
  (:class:`~repro.recovery.tlb_recovery.RecoveredTail`).  The walk
  reads the dangling predecessors and the flank's children — no other
  node — and vouches for its answer only if the chains it sees are
  plain flank flushes: every node allocated since the last TLB leaf
  filled lies on a dangling node's predecessor chain, forward and
  backward links agree, and from the stored parent's last child back
  (where a split could owe that parent an entry) ids rise and no node
  was split.  Anything else (a split that may need repair or rollback,
  a phantom mapping reset by TLB recovery) sends recovery to the scan,
  which decides alone;
* **the header scan** (v1 files, and the fallback).  One forward walk
  over the macro blocks checks every C-block's CRC, but inflates only
  the 40-byte node header of a leaf (links, LSN) — index nodes decode in
  full, because split repair needs their entries.  It is O(stored
  nodes) header reads and also finds half-applied splits (rolled back)
  and committed splits whose parent update was lost (redone).

Either way a leaf's events are decoded only where they are summarized:
the flank's children, repair candidates and the open leaf's
predecessor, O(fanout × height) full decodes.  Both feed the same
rebuild, so a store recovers to the same tree whichever path it took;
``recovery.flank_walk`` and ``recovery.flank_scan_fallback`` count them.
"""

from __future__ import annotations

from repro import obs
from repro.errors import CorruptBlockError, RecoveryError, StorageError
from repro.index.entry import IndexEntry
from repro.index.node import (
    FLAG_SPLIT,
    MAGIC_INDEX,
    MAGIC_LEAF,
    NO_NODE,
    NODE_HEADER,
    NODE_HEADER_SIZE,
    IndexNode,
    LeafNode,
)
from repro.obs import OBS
from repro.storage.addressing import NULL_ADDR, is_stored
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
    addr = layout._resolve(block_id)
    return addr if is_stored(addr) else NULL_ADDR


class StoredLeaf:
    """A stored leaf as the header pass saw it: links and LSN, no events.

    :func:`_content` decodes the full leaf on the few paths that need
    its events (flank summaries, repair candidates, the open leaf's
    predecessor).
    """

    __slots__ = ("node_id", "prev_id", "next_id", "lsn", "flags", "full")
    level = 0

    def __init__(self, node_id: int, prev_id: int, next_id: int, lsn: int,
                 flags: int = 0):
        self.node_id = node_id
        self.prev_id = prev_id
        self.next_id = next_id
        self.lsn = lsn
        self.flags = flags
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
    magic, count, _, flags, lsn, node_id, prev_id, next_id = NODE_HEADER.unpack(
        header
    )
    if magic == MAGIC_LEAF and count <= tree.codec.leaf_capacity:
        if OBS.enabled:
            OBS.counter("recovery.nodes_header_only").inc()
        return StoredLeaf(node_id, prev_id, next_id, lsn, flags)
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

    Returns ``(level, right_id, left_id)`` tuples, top level first: a
    split that overflowed its parent leaves the parent's own right half
    unparented too, and the lower repair needs the parent chain the
    upper one restores.
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
    repairs: list[tuple[int, int, int]] = []
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
            repairs.append((node.level, node_id, left_id))
    repairs.sort(reverse=True)
    return repairs


def _path_to(tree, node_id: int) -> list[tuple[object, int]]:
    """``(index node, entry index)`` pairs from the lowest flank node
    above *node_id* down to the entry that references it, in the live
    tree — so an earlier repair's entries and splits count."""
    level = tree.buffer.get(node_id).level

    def down(node):
        for i, entry in enumerate(node.entries):
            if entry.child_id == node_id:
                return [(node, i)]
        if node.level - 1 <= level:
            return None  # its children are at or below the target's level
        for i, entry in enumerate(node.entries):
            below = down(tree.buffer.get(entry.child_id))
            if below is not None:
                return [(node, i)] + below
        return None

    for fnode in tree.flank:
        if fnode.level > level:
            path = down(fnode)
            if path is not None:
                return path
    raise RecoveryError(f"no parent chain above node {node_id} during split repair")


def _redo_parent_entry(tree, right_id: int, left_id: int) -> None:
    """Re-apply a crash-lost ``_replace_parent_entry`` on the live tree.

    Runs after the flank is rebuilt so the tree's own split machinery can
    absorb a parent overflow (the cascade may climb into the flank).  The
    left half's entry is found in the live tree: an earlier repair may
    have moved or shifted it.
    """
    path = _path_to(tree, left_id)
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
        return tree.leaf_statistics(node).entry
    return IndexEntry.combine(node.node_id, node.entries)


class _Inconsistent(Exception):
    """The flank walk cannot vouch for its answer: the scan decides."""


class _Plan:
    """What the rebuild needs, from either the flank walk or the scan.

    ``dangling`` maps each level with a flushed node to ``(lost flank
    id, its stored predecessor)``; ``node_at`` and ``prev_of`` walk a
    level backwards; ``covered_past`` maps a stored parent's last child
    to the last node that parent covers.  ``repairs`` are the scan's
    (:func:`_find_repairs`).
    """

    def __init__(self, dangling, unwritten, node_at, prev_of,
                 covered_past=lambda node_id: node_id, repairs=()):
        self.dangling = dangling
        self.unwritten = unwritten
        self.node_at = node_at
        self.prev_of = prev_of
        self.covered_past = covered_past
        self.repairs = repairs


def _scan_plan(tree) -> _Plan:
    """Step 1 by the header scan over every stored node."""
    nodes, unwritten, occupied, orphans = _scan_nodes(tree)
    dangling = _find_dangling_links(tree, nodes, orphans, occupied)
    prev_map = _build_prev_map(nodes, orphans)
    repairs = _find_repairs(tree, nodes, orphans)
    repaired_rights = {right_id for _, right_id, _ in repairs}

    def node_at(node_id: int):
        node = nodes.get(node_id)
        if node is None:
            raise RecoveryError("broken previous-sibling chain")
        return node

    def covered_past(node_id: int) -> int:
        # A committed-but-unparented right half belongs to the stored
        # parent (the repair reinstates its entry), not to the rebuilt
        # flank: extend the exclusive bound past it.
        while node_id in nodes and nodes[node_id].next_id in repaired_rights:
            node_id = nodes[node_id].next_id
        return node_id

    return _Plan(dangling, unwritten, node_at,
                 lambda node: prev_map[node.node_id], covered_past, repairs)


def _walk_plan(tree, tail) -> _Plan:
    """Step 1 by the flank walk (format v2); raises :class:`_Inconsistent`
    where the scan must decide."""
    layout = tree.layout
    tlb = layout.tlb
    if tail.doubtful:
        raise _Inconsistent(f"ids {tail.doubtful[:3]} cannot be trusted")
    headers = {}
    for block_id, prefix in tail.headers.items():
        if len(prefix) < NODE_HEADER_SIZE:
            continue
        header = NODE_HEADER.unpack_from(prefix)
        if header[0] not in (MAGIC_LEAF, MAGIC_INDEX):
            continue
        if header[5] != block_id:
            raise _Inconsistent(f"block {block_id} holds node {header[5]}")
        headers[block_id] = header
    nodes: dict[int, object] = {}

    def node_at(node_id: int):
        node = nodes.get(node_id)
        if node is None:
            header = headers.get(node_id)
            if header is not None and header[0] == MAGIC_LEAF:
                _, _, _, flags, lsn, _, prev_id, next_id = header
                node = StoredLeaf(node_id, prev_id, next_id, lsn, flags)
            else:
                node = _read_node(tree, node_id)
            if node is None:
                raise _Inconsistent(f"node {node_id} does not decode")
            nodes[node_id] = node
        return node

    def links(node_id: int):
        """``(level, flags, prev_id, next_id)``, from the tail header when
        there is one."""
        header = headers.get(node_id)
        if header is not None:
            return header[2], header[3], header[6], header[7]
        node = node_at(node_id)
        return node.level, node.flags, node.prev_id, node.next_id

    def check_prev(node_id: int, level: int, prev_id: int) -> int:
        """*prev_id*'s flags, once its forward link agrees."""
        prev_level, flags, _, next_id = links(prev_id)
        if next_id != node_id or prev_level != level:
            raise _Inconsistent(f"links of {prev_id} and {node_id}")
        return flags

    def prev_of(node) -> int:
        if node.prev_id != NO_NODE:
            check_prev(node.node_id, node.level, node.prev_id)
        return node.prev_id

    def written(node_id: int) -> bool:
        return _stored_addr(layout, node_id) != NULL_ADDR

    def last_before(gap: int, level: int, node_id: int):
        """The stored node whose forward link is *gap*, reached from
        *node_id* over right halves split off since *gap* was reserved."""
        node = node_at(node_id)
        for _ in range(64):
            if node.level != level:
                break
            if node.next_id == gap:
                return node
            if not written(node.next_id):
                break
            node = node_at(node.next_id)
        raise _Inconsistent(f"no node at level {level} precedes {gap}")

    # Each lost flank id names its predecessor: through its durable TLB
    # slot (a tag whose predecessor was never written is stale: that
    # flush died with the crash), or — flushed after that slot's TLB leaf
    # — through the header of a tail node whose forward link nothing
    # stored answers.
    pairs: dict[int, dict[int, int]] = {}
    for node_id, header in headers.items():
        next_id = header[7]
        if next_id != NO_NODE and not written(next_id):
            pairs.setdefault(header[2], {})[node_id] = next_id
    for gap, (level, prev_id) in tail.reserved.items():
        if prev_id != NO_NODE and written(prev_id):
            predecessor = last_before(gap, level, prev_id)
            pairs.setdefault(level, {})[predecessor.node_id] = gap
    if sorted(pairs) != list(range(len(pairs))):
        raise _Inconsistent(f"dangling links at levels {sorted(pairs)}")
    dangling = {}
    for level, found in pairs.items():
        if len(found) != 1:
            raise _Inconsistent(f"{len(found)} dangling links at level {level}")
        ((prev_id, gap),) = found.items()
        predecessor = node_at(prev_id)
        if predecessor.level != level or predecessor.next_id != gap:
            raise _Inconsistent(f"node {prev_id} does not precede {gap}")
        dangling[level] = (gap, predecessor)
    # Everything allocated on a level since the last TLB leaf filled
    # lies on the dangling node's predecessor chain.  The rebuilt flank
    # adopts the nodes behind that node up to its stored parent's last
    # child; splits there are the flank's own business.  From that child
    # on, a split may owe its stored parent an entry: there, and on the
    # node before the chain's first fresh one, ids rise and no node was
    # split — else the scan decides.
    on_chain: set[int] = set()
    for level, (gap, predecessor) in dangling.items():
        above = dangling.get(level + 1)
        bound = above[1].entries[-1].child_id if above else None
        node_id, flags = predecessor.node_id, predecessor.flags
        strict = node_id == bound
        while True:
            if strict and flags & FLAG_SPLIT:
                raise _Inconsistent(f"node {node_id} was split")
            on_chain.add(node_id)
            prev_id = links(node_id)[2]
            if prev_id == NO_NODE or (
                prev_id not in headers and node_id < tail.fresh_from
            ):
                break
            strict = strict or prev_id == bound
            if strict and prev_id >= node_id:
                raise _Inconsistent(f"ids fall along level {level}")
            flags = check_prev(node_id, level, prev_id)
            if prev_id not in headers:
                if strict and flags & FLAG_SPLIT:
                    raise _Inconsistent(f"node {prev_id} was split")
                break
            node_id = prev_id
    stray = [node_id for node_id in headers
             if node_id >= tail.fresh_from and node_id not in on_chain]
    if stray:
        raise _Inconsistent(f"nodes {stray[:3]} are on no flank chain")
    unwritten = sorted(
        set(tail.reserved).union(
            node_id for node_id in range(tlb.next_slot, layout.next_id)
            if node_id not in tlb.pending
        )
    )
    return _Plan(dangling, unwritten, node_at, prev_of)


def _flank_children(plan: _Plan):
    """``(level, dangling entry | None, children)`` of every index flank
    node, bottom-up — reads only; the rebuild mutates afterwards."""
    levels = []
    leaf_entry = plan.dangling.get(0)
    level, last_child = 1, leaf_entry[1] if leaf_entry else None
    while last_child is not None:
        entry = plan.dangling.get(level)
        covered_until = (
            plan.covered_past(entry[1].entries[-1].child_id) if entry else None
        )
        children = []
        walker = last_child if last_child.node_id != covered_until else None
        while walker is not None:
            children.append(walker)
            prev = plan.prev_of(walker)
            if prev in (NO_NODE, covered_until):
                break
            walker = plan.node_at(prev)
        children.reverse()
        levels.append((level, entry, children))
        last_child = entry[1] if entry else None
        level += 1
    return levels


def recover_tree_flank(tree) -> None:
    """Rebuild *tree*'s in-memory right flank from the recovered layout."""
    with obs.span("recovery.tree_flank"):
        _recover_tree_flank(tree)


def _recover_tree_flank(tree) -> None:
    layout = tree.layout
    tail, layout.recovered_tail = layout.recovered_tail, None
    plan = levels = None
    if tail is not None:
        try:
            plan = _walk_plan(tree, tail)
            levels = _flank_children(plan)
        except _Inconsistent:
            plan = None
    if OBS.enabled:
        OBS.counter(
            "recovery.flank_walk" if plan is not None
            else "recovery.flank_scan_fallback"
        ).inc()
    if plan is None:
        plan = _scan_plan(tree)
        levels = _flank_children(plan)
    _rebuild(tree, plan, levels)


def _rebuild(tree, plan: _Plan, levels) -> None:
    layout = tree.layout
    dangling = dict(plan.dangling)
    unwritten = list(plan.unwritten)
    max_lsn = 0
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
        tree.leaf = tree._new_leaf(leaf_id, last_leaf.node_id)
        tree.last_flushed_leaf = (last_leaf.node_id, _content(tree, last_leaf).t_max)
    else:
        tree.leaf = tree._new_leaf(fresh_id())
        tree.last_flushed_leaf = None

    # --- index flank, bottom-up -----------------------------------------
    tree.flank = []
    for level, entry, children in levels:
        if entry is not None:
            node_id, predecessor = dangling.pop(level)
            prev_id = predecessor.node_id
        else:
            node_id = fresh_id()
            prev_id = NO_NODE
        for child in children:
            max_lsn = max(max_lsn, child.lsn)
        tree.flank.append(
            IndexNode(
                node_id=node_id,
                level=level,
                prev_id=prev_id,
                entries=[_summarize(tree, child) for child in children],
            )
        )

    # Gaps at levels the rebuilt flank never reached (should not happen in
    # a consistent log) and unreferenced unwritten ids are tombstoned so
    # the positional TLB can advance past their slots.
    for gap, _ in dangling.values():
        claimed.discard(gap)
    for candidate in unwritten:
        if candidate not in claimed:
            layout.write_tombstone(candidate)

    # Re-reserve the flank ids so the positional TLB keeps flowing while
    # the reconstructed nodes sit in memory (matching normal operation),
    # each placeholder naming its node's level and predecessor.
    for node in [tree.leaf] + tree.flank:
        layout.reserve_block(node.node_id, node.level, node.prev_id)

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
    for _, right_id, left_id in plan.repairs:
        _redo_parent_entry(tree, right_id, left_id)

    tree.event_count = sum(
        entry.count for node in tree.flank for entry in node.entries
    )
    if tree.flank and tree.flank[-1].entries:
        tree.min_t = tree.flank[-1].entries[0].t_min
    else:
        tree.min_t = None
