"""The full-decode tree-recovery classifier, kept as the header pass's oracle.

Tree recovery (:mod:`repro.recovery.tree_recovery`) classifies the stored
nodes from their headers in one sequential walk and decodes a leaf only
where its events are summarized.  :func:`scan_nodes_full` is the
classifier it replaced: it reads every allocated id through the TLB and
decodes every stored node in full.  ``tests/recovery/
test_header_scan_equivalence.py`` checks at every crash point of the
canonical matrices that both return the same classification and that the
tree recovered from either is the same.
"""

from __future__ import annotations

from repro.recovery.tree_recovery import _find_orphans, _read_node, _stored_addr
from repro.storage.addressing import NULL_ADDR


def scan_nodes_full(
    tree,
) -> tuple[dict[int, object], list[int], set[int], set[int]]:
    """``(nodes, unwritten, occupied, orphans)`` like
    ``tree_recovery._scan_nodes``, with every stored node fully decoded."""
    layout = tree.layout
    nodes: dict[int, object] = {}
    unwritten: list[int] = []
    occupied: set[int] = set()
    for node_id in range(layout.next_id):
        if _stored_addr(layout, node_id) == NULL_ADDR:
            unwritten.append(node_id)
            continue
        node = _read_node(tree, node_id)
        if node is None:
            occupied.add(node_id)
        else:
            nodes[node_id] = node
    return nodes, unwritten, occupied, _find_orphans(nodes)
