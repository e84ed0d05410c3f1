"""Section 5.7.1's spare-space sizing claim.

"if we expect 15 out-of-order events per L-block, a simple urn-based
analysis shows that the probability of an overflow is less than 10% for
a spare space of 20 events."

Two checks: the analytic Poisson tail (late events scattering over many
blocks are well approximated by a Poisson urn), and an end-to-end
Monte-Carlo against the actual TAB+-tree (overflow = leaf split).
"""

import random

from scipy import stats

from repro.events import ColumnarEvents, EventSchema
from repro.index import TabTree
from repro.simdisk import SimulatedDisk
from repro.storage import ChronicleLayout

SCHEMA = EventSchema.of("x")


def test_poisson_urn_analysis_matches_paper_claim():
    # P(more than 20 late events land in a block | expectation 15) < 10 %.
    overflow_probability = 1.0 - stats.poisson.cdf(20, 15)
    assert overflow_probability < 0.10
    # And the claim is tight: spare of 17 would NOT satisfy the bound.
    assert 1.0 - stats.poisson.cdf(17, 15) > 0.10


def test_monte_carlo_overflow_rate_matches_urn_model():
    """Scatter late events uniformly; measure actual leaf splits."""
    layout = ChronicleLayout.create(
        SimulatedDisk(), lblock_size=2048, macro_size=8192, compressor="zlib"
    )
    tree = TabTree(layout, SCHEMA, lblock_spare=0.2)
    capacity = tree.codec.leaf_capacity  # 125 events for 2 KiB blocks
    spare = capacity - tree.leaf_write_capacity
    assert spare >= 20

    n_leaves = 60
    per_leaf = tree.leaf_write_capacity
    total = n_leaves * per_leaf
    for i in range(total):
        tree.append_run(ColumnarEvents([i * 10], [[float(i)]]))

    # Expectation of 15 late events per flushed leaf, uniform placement.
    rng = random.Random(7)
    flushed_leaves = total // per_leaf
    late_count = 15 * (flushed_leaves - 1)
    for _ in range(late_count):
        t = rng.randrange(0, (total - per_leaf) * 10)
        tree.ooo_insert(t, (-1.0,))

    overflow_rate = tree.splits_performed / flushed_leaves
    expected = 1.0 - stats.poisson.cdf(spare, 15)
    # The empirical rate tracks the urn model (loose band: one trial).
    assert overflow_rate < max(0.12, 3 * expected)


def test_zero_spare_splits_far_more_than_spared_tree():
    def run(spare: float) -> int:
        layout = ChronicleLayout.create(
            SimulatedDisk(), lblock_size=2048, macro_size=8192,
            compressor="zlib",
        )
        tree = TabTree(layout, SCHEMA, lblock_spare=spare)
        per_leaf = tree.leaf_write_capacity
        for i in range(per_leaf * 20):
            tree.append_run(ColumnarEvents([i * 10], [[float(i)]]))
        rng = random.Random(3)
        for _ in range(60):
            tree.ooo_insert(rng.randrange(0, per_leaf * 19 * 10), (-1.0,))
        return tree.splits_performed

    without_spare = run(0.0)
    with_spare = run(0.2)
    # Without spare space, the first late insert into any full leaf splits
    # it (splits then halve the local fill, absorbing a few repeats).
    assert without_spare >= 10
    assert with_spare <= without_spare / 5
