"""Reads cost O(window), not O(position).

The same-size window is read at 10 % / 50 % / 90 % of one ≥ 200 K-event
tree with every cache emptied; the work — blocks inflated and bytes read
from the (simulated) device, no wall clock — must be flat in the
window's position and bounded by what the answer needs: the leaves
returned, one index node per tree level, and one macro block of lead-in.
"""

import random

import pytest

from repro import ChronicleConfig, ChronicleDB, EventSchema
from repro.query.parser import parse
from repro.query.planner import build_plan, run_plan

EVENTS = 200_000
WINDOW = 4_000
STEP = 10  # timestamp spacing
POSITIONS = (0.1, 0.5, 0.9)


@pytest.fixture(scope="module")
def store():
    db = ChronicleDB(config=ChronicleConfig())
    stream = db.create_stream("s", EventSchema.of("a", "b"))
    timestamps = list(range(0, EVENTS * STEP, STEP))
    # `a` steps through 0/1/2 every 300 events, so min/max statistics
    # prune about two leaves in three for `a >= 2`.
    a = [float((i // 300) % 3) for i in range(EVENTS)]
    rng = random.Random(17)
    b = [rng.random() for _ in range(EVENTS)]  # keeps C-blocks realistic
    for lo in range(0, EVENTS, 4096):
        stream.append_columns(
            timestamps[lo : lo + 4096], [a[lo : lo + 4096], b[lo : lo + 4096]]
        )
    stream.flush()
    (split,) = stream.splits
    layout = split.layout
    inflations = [0]
    decompress = layout.codec.decompress

    def counting(payload, original_len):
        inflations[0] += 1
        return decompress(payload, original_len)

    layout.codec.decompress = counting
    return stream, split.tree, layout, inflations


def _cold_run(store, work):
    """Run *work* with every cache empty; returns (inflated, bytes_read)."""
    _, tree, layout, inflations = store
    tree.buffer._frames.clear()
    layout._macro_cache.clear()
    layout.tlb._leaf_cache.clear()
    inflations[0] = 0
    before = layout.device.stats.bytes_read
    work()
    return inflations[0], layout.device.stats.bytes_read - before


def _window(position):
    lo = int(EVENTS * position) * STEP
    return lo, lo + WINDOW * STEP - 1


def _budget(store, leaves):
    """(blocks, bytes) an answer of *leaves* leaves may cost."""
    _, tree, layout, _ = store
    macros = (layout.device.size - 4096) // layout.macro_size
    per_macro = -(-layout.block_count // macros)
    height = tree.root.level
    blocks = leaves + height + per_macro
    # Every C-block is at most an L-block; each index node is one
    # whole-macro random read.
    return blocks, blocks * layout.lblock_size + height * layout.macro_size


def _assert_flat(costs, layout):
    """One leaf / one macro block of alignment slack, nothing that grows
    with position (the walk-from-block-0 reader inflated 10x more at 90 %
    than at 10 %)."""
    inflated, bytes_read = zip(*costs)
    assert max(inflated) - min(inflated) <= 1
    assert max(bytes_read) - min(bytes_read) <= (
        layout.macro_size + 2 * layout.lblock_size
    )


@pytest.mark.parametrize(
    "sql, pruned",
    [
        ("SELECT count(a), avg(b) FROM s WHERE t BETWEEN {} AND {} AND a >= 2",
         True),
        ("SELECT * FROM s WHERE t BETWEEN {} AND {}", False),
    ],
)
def test_planned_scan_is_flat_in_window_position(store, sql, pruned):
    stream, _, layout, _ = store
    costs = []
    for position in POSITIONS:
        plan = build_plan(stream, parse(sql.format(*_window(position))))
        inflated, bytes_read = _cold_run(store, lambda: run_plan(stream, plan))
        stats = plan.executed
        leaves = stats["leaves_scanned"]
        assert leaves > 0
        assert bool(stats.get("leaves_skipped")) == pruned
        # Wasted-work ratio: inflated / requested is exactly 1.
        assert stats["blocks_inflated"] == stats["blocks_requested"] == leaves
        blocks, byte_budget = _budget(store, leaves)
        assert inflated <= blocks
        assert bytes_read <= byte_budget
        costs.append((inflated, bytes_read))
    _assert_flat(costs, layout)


def test_time_travel_is_flat_in_window_position(store):
    stream, _, layout, _ = store
    costs = []
    for position in POSITIONS:
        events = []
        lo, hi = _window(position)
        cost = _cold_run(
            store, lambda: events.extend(stream.time_travel(lo, hi))
        )
        assert len(events) == WINDOW
        costs.append(cost)
    leaves = -(-WINDOW // store[1].leaf_write_capacity) + 1
    blocks, byte_budget = _budget(store, leaves)
    assert max(inflated for inflated, _ in costs) <= blocks
    assert max(bytes_read for _, bytes_read in costs) <= byte_budget
    _assert_flat(costs, layout)
