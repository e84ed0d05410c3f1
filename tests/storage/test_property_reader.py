"""Property: the sliding reader answers exactly like random TLB reads.

For any increasing id sequence with arbitrary gaps — over a layout that
contains blocks relocated to the end of the log (so a *higher* id sits
physically behind them), tombstones, C-blocks fragmented across macro
blocks and ids still in the open macro —
``reader.get(id) == layout.read_block(id)``, and the reader never
inflates a block it was not asked for.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.compression import ZlibCompressor
from repro.simdisk import SimulatedDisk
from repro.storage import ChronicleLayout
from repro.storage.prefetch import SequentialBlockReader

LBLOCK = 256
MACRO = 1024


def block_for(seed: int, fill: int) -> bytes:
    """*fill* incompressible bytes, then zeros: fill near LBLOCK makes a
    C-block that fragments across macro blocks."""
    rng = random.Random(seed)
    head = bytes(rng.randrange(256) for _ in range(fill))
    return (head + bytes(LBLOCK))[:LBLOCK]


class CountingZlib(ZlibCompressor):
    def __init__(self):
        super().__init__()
        self.inflations = 0

    def decompress(self, payload, original_len):
        self.inflations += 1
        return super().decompress(payload, original_len)


@settings(max_examples=60, deadline=None)
@given(
    fills=st.lists(
        st.sampled_from([0, 8, 64, 200, LBLOCK]), min_size=1, max_size=90
    ),
    tombstones=st.sets(st.integers(0, 89), max_size=6),
    relocations=st.lists(st.integers(0, 10_000), max_size=8),
    open_tail=st.integers(0, 4),
    picks=st.data(),
    window_blocks=st.sampled_from([1, 4, 1024]),
    restart_gap=st.sampled_from([None, 0, 3, 16]),
)
def test_reader_matches_random_reads(
    fills, tombstones, relocations, open_tail, picks, window_blocks,
    restart_gap,
):
    codec = CountingZlib()
    layout = ChronicleLayout.create(
        SimulatedDisk(), lblock_size=LBLOCK, macro_size=MACRO,
        compressor=codec,
    )
    live: list[int] = []
    for position, fill in enumerate(fills):
        if position in tombstones:
            layout.write_tombstone(layout.allocate_id())
        else:
            live.append(layout.append_block(block_for(position, fill)))
    layout.flush()
    # Growing a compressed block relocates it to the end of the log and
    # leaves a reference behind: later ids now sit physically *before* it.
    for seed in relocations:
        if live:
            layout.update_block(
                live[seed % len(live)], block_for(seed, LBLOCK)
            )
    layout.flush()
    for extra in range(open_tail):  # stays in the open macro
        live.append(layout.append_block(block_for(1000 + extra, 8)))
    wanted = sorted(
        picks.draw(st.sets(st.sampled_from(live)), label="ids")
    ) if live else []
    expected = {block_id: layout.read_block(block_id) for block_id in wanted}

    reader = SequentialBlockReader(
        layout, window_blocks=window_blocks, restart_gap=restart_gap
    )
    codec.inflations = 0
    for block_id in wanted:
        assert reader.get(block_id) == expected[block_id]
    assert reader.requested == len(wanted)
    assert codec.inflations == reader.inflated == len(wanted)
