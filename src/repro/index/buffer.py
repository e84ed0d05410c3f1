"""LRU buffer for TAB+-tree nodes (paper, Figure 7: "Tree Buffer (LRU)").

Out-of-order insertions hit historical nodes; the buffer keeps them in
memory with a no-force policy — dirty pages are written back on eviction
or at a checkpoint, protected by the write-ahead log.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


@dataclass
class _Frame:
    node: object
    dirty: bool = False
    is_new: bool = False  # created by a split; first write uses write_block


class NodeBuffer:
    """Caches decoded tree nodes with write-back on eviction."""

    def __init__(self, tree, capacity: int = 256):
        self._tree = tree
        self.capacity = capacity
        self._frames: OrderedDict[int, _Frame] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, node_id: int):
        """The node with *node_id*, loading it from storage if needed."""
        frame = self._frames.get(node_id)
        if frame is not None:
            self.hits += 1
            self._frames.move_to_end(node_id)
            return frame.node
        self.misses += 1
        node = self._tree._load_node(node_id)
        self._insert(node_id, _Frame(node))
        return node

    def cached(self, node_id: int):
        """The node if buffered (dirty or clean); ``None`` otherwise."""
        frame = self._frames.get(node_id)
        if frame is None:
            return None
        self._frames.move_to_end(node_id)
        return frame.node

    def put_new(self, node) -> None:
        """Register a freshly created (split) node as dirty."""
        self._insert(node.node_id, _Frame(node, dirty=True, is_new=True))

    def put_clean(self, node) -> None:
        """Cache a node that is already durable (e.g. a just-flushed leaf).

        Keeping the recent right-flank region buffered is what makes
        out-of-order inserts cheap: late events exhibit temporal locality
        (Section 5.7.1), so their target leaves are usually still here.
        """
        if node.node_id not in self._frames:
            self._insert(node.node_id, _Frame(node))

    def mark_dirty(self, node_id: int) -> None:
        frame = self._frames.get(node_id)
        if frame is None:
            raise KeyError(f"node {node_id} not buffered")
        frame.dirty = True

    def _insert(self, node_id: int, frame: _Frame) -> None:
        self._frames[node_id] = frame
        self._frames.move_to_end(node_id)
        while len(self._frames) > self.capacity:
            victim_id, victim = self._frames.popitem(last=False)
            if victim.dirty:
                self._tree._store_node(victim.node, victim.is_new)

    def flush_dirty(self) -> None:
        """Write back every dirty page (checkpoint, Section 5.7).

        Updates of existing pages are handed to the layout as one batch:
        out-of-order updates cluster in consecutive leaves, whose macro
        blocks are physically adjacent, so the write-back coalesces into
        (mostly) sequential I/O.
        """
        updates: dict[int, bytes] = {}
        for node_id in sorted(self._frames):
            frame = self._frames[node_id]
            if not frame.dirty:
                continue
            if frame.is_new:
                self._tree._store_node(frame.node, True)
            else:
                updates[node_id] = self._tree.codec.encode(frame.node)
            frame.dirty = False
            frame.is_new = False
        if updates:
            self._tree.layout.update_blocks(updates)

    def write_through(self, node_id: int) -> None:
        """Force one page out immediately (used by the split path)."""
        frame = self._frames.get(node_id)
        if frame is not None and frame.dirty:
            self._tree._store_node(frame.node, frame.is_new)
            frame.dirty = False
            frame.is_new = False

    def drop(self, node_id: int) -> None:
        self._frames.pop(node_id, None)
