"""Stored and queried sums do not depend on the interpreter.

Leaf sums are persisted in TAB+-tree index entries, and from Python 3.12
builtin ``sum`` compensates float additions (``sum([1e16, 1.0, -1e16])``
is ``1.0`` there, ``0.0`` on 3.11).  Every sum the store keeps or
answers adds left to right from 0 — the plain ``s += v`` loop below —
on every interpreter, and an ``I64`` column's sum is the exact integer.
"""

from array import array

from repro import ChronicleConfig, ChronicleDB
from repro.events import EventSchema, Field, FieldKind
from repro.index.queries import AggregateAccumulator, fold

N = 1_200
CANCELLING = [1e16, 1.0, -1e16, 1.0, 0.5, -0.0, 0.0, -1e16, 1e16, 3.0]
BIG = [2**62 - 1, 2**62 - 3, -(2**62) + 5, 2**62 - 7, 2**61 + 1]


def loop_sum(values, squares=False):
    total = 0
    for value in values:
        total += value * value if squares else value
    return total


def columns():
    xs = [CANCELLING[i % len(CANCELLING)] for i in range(N)]
    xs[N // 2: N // 2 + 400] = [-0.0] * 400  # a leaf of only -0.0
    ns = [BIG[i % len(BIG)] for i in range(N)]
    return xs, ns


def test_stored_leaf_sums_are_the_sequential_loop():
    xs, ns = columns()
    db = ChronicleDB(config=ChronicleConfig(lblock_size=4096,
                                            extended_aggregates=True))
    stream = db.create_stream(
        "s", EventSchema([Field("x"), Field("n", FieldKind.I64)])
    )
    stream.append_columns(list(range(N)), [xs, ns])
    tree = stream.splits[0].tree
    entries = [entry for node in tree.flank for entry in node.entries]
    assert len(entries) >= 5
    checked = 0
    for entry in entries:
        leaf = tree._get_node(entry.child_id)
        for agg, column in zip(entry.aggs, leaf.columns):
            expected = (float(loop_sum(column)),
                        float(loop_sum(column, squares=True)))
            assert repr(agg[2:]) == repr(expected)
            checked += 1
    assert checked == 2 * len(entries)
    db.close()


def test_query_side_sums_are_the_sequential_loop():
    xs, ns = columns()
    for values in (xs, array("d", xs), xs[:3], ns, array("q", ns), [-0.0] * 4):
        assert repr(fold("sum", values)) == repr(float(loop_sum(values)))
        acc = AggregateAccumulator()
        acc.add_values(values)
        assert repr((acc.total, acc.sum_squares)) == repr(
            (0.0 + loop_sum(values), 0.0 + loop_sum(values, squares=True))
        )
    assert fold("sum", [1e16, 1.0, -1e16]) == 0.0
    assert fold("sum", BIG) == float(sum(BIG))  # integers: exact
