"""`Event` keeps the semantics of the frozen dataclass it once was.

`Event` is a tuple-backed record, so batches of events build in one C
pass (`Event.from_columns`).  `DataclassEvent` below is the former
definition, verbatim, and is the reference model: equality, hashing,
ordering, `repr`, pickling, copying, immutability and the constructors
must answer exactly as it does, for drawn timestamps and values (NaN,
-0.0 and I64 values near ±2**62 included).
"""

import copy
import math
import operator
import pickle
from dataclasses import FrozenInstanceError, dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import ColumnarEvents, Event


@dataclass(frozen=True, slots=True)
class DataclassEvent:
    t: int
    values: tuple

    def __lt__(self, other: "DataclassEvent") -> bool:
        return self.t < other.t

    def value(self, index: int):
        return self.values[index]

    @classmethod
    def of(cls, t: int, *values) -> "DataclassEvent":
        return cls(t, tuple(values))


NAN = float("nan")
timestamps = st.integers(-(2**62), 2**62) | st.sampled_from(
    [0, -1, 2**62, -(2**62), 2**62 - 1]
)
scalars = (
    st.floats(allow_nan=True)
    | st.sampled_from([NAN, 0.0, -0.0, math.inf, -math.inf])
    | st.integers(-(2**62) - 4, 2**62 + 4)
)
value_tuples = st.lists(scalars, max_size=4).map(tuple)


def both(t, values):
    return Event(t, values), DataclassEvent(t, values)


def outcome(function, *args):
    """``("ok", result)`` or ``("raises", exception type)``."""
    try:
        return "ok", function(*args)
    except Exception as error:  # the type is what is compared
        return "raises", type(error)


@settings(max_examples=300, deadline=None)
@given(timestamps, value_tuples, timestamps, value_tuples, st.booleans())
def test_equality_and_hash_match_the_dataclass(t, values, u, others, same):
    if same:
        u, others = t, values  # the same objects: NaN is its own equal
    a, ref_a = both(t, values)
    b, ref_b = both(u, others)
    assert (a == b) is (ref_a == ref_b)
    assert (a != b) is (ref_a != ref_b)
    assert a == a and not a != a  # identity, even with NaN inside
    # Never equal to a plain tuple of the same fields, either way round.
    for plain in ((t, values), (u, others)):
        assert (a == plain) is (ref_a == plain) is False
        assert (plain == a) is (plain == ref_a) is False
        assert (a != plain) is (ref_a != plain) is True
        assert (plain != a) is (plain != ref_a) is True
    for other in (None, t, [t, values], "Event"):
        assert (a == other) is (ref_a == other)
        assert (a != other) is (ref_a != other)
    # Another record type with the same fields is not equal either.
    assert (a == ref_a) is (ref_a == a) is False
    assert outcome(hash, a) == outcome(hash, ref_a)
    if outcome(hash, a)[0] == "ok":
        assert hash(a) == hash((t, values))
    assert a.t == ref_a.t and a.values is values


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), value_tuples), max_size=12))
def test_ordering_matches_the_dataclass(rows):
    events = [Event(t, values) for t, values in rows]
    refs = [DataclassEvent(t, values) for t, values in rows]

    def key(result):
        return [(e.t, id(e.values)) for e in result]

    # Stable on equal t; max and min keep their tie order (> reflects).
    assert key(sorted(events)) == key(sorted(refs))
    assert key(sorted(events, reverse=True)) == key(sorted(refs, reverse=True))
    if events:
        assert key([max(events), min(events)]) == key([max(refs), min(refs)])
    for (a, ref_a) in zip(events, refs):
        for (b, ref_b) in zip(events, refs):
            assert (a < b) is (ref_a < ref_b)
            assert (a > b) is (ref_a > ref_b)
            for op in (operator.le, operator.ge):
                assert outcome(op, a, b) == outcome(op, ref_a, ref_b)
                assert outcome(op, a, b)[0] == "raises"


@pytest.mark.parametrize("op", [operator.lt, operator.gt, operator.le,
                                operator.ge])
@pytest.mark.parametrize("other", [(1, (2.0,)), (5,), 5, None, "x"])
def test_ordering_against_other_types_matches_the_dataclass(op, other):
    event, ref = both(1, (2.0,))
    assert outcome(op, event, other) == outcome(op, ref, other)
    assert outcome(op, other, event) == outcome(op, other, ref)


@settings(max_examples=200, deadline=None)
@given(timestamps, value_tuples)
def test_repr_pickle_copy_and_immutability(t, values):
    event, ref = both(t, values)
    assert repr(event) == repr(ref).replace("DataclassEvent", "Event")
    assert repr(event) == f"Event(t={t!r}, values={values!r})"
    for clone in (pickle.loads(pickle.dumps(event)), copy.copy(event),
                  copy.deepcopy(event)):
        assert type(clone) is Event
        assert repr(clone) == repr(event)
        assert clone.t == t
    assert Event(*event.__getnewargs__()) == event
    with pytest.raises(AttributeError):
        event.t = 0
    with pytest.raises(AttributeError):
        event.values = ()
    with pytest.raises(AttributeError):
        event.extra = 1
    with pytest.raises(FrozenInstanceError):
        ref.t = 0


@settings(max_examples=100, deadline=None)
@given(timestamps, st.lists(scalars, min_size=1, max_size=4))
def test_constructors_and_accessors_match_the_dataclass(t, values):
    event = Event.of(t, *values)
    ref = DataclassEvent.of(t, *values)
    assert event.values == ref.values or repr(event.values) == repr(ref.values)
    assert Event(t=t, values=tuple(values)) == Event(t, tuple(values))
    for i in range(len(values)):
        assert repr(event.value(i)) == repr(ref.value(i))
    assert Event.__match_args__ == DataclassEvent.__match_args__
    match event:
        case Event(u, got):
            assert u == t and got is event.values
        case _:
            pytest.fail("positional match on Event failed")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(timestamps, scalars, scalars), max_size=20))
def test_batch_construction_equals_row_construction(rows):
    timestamps = [t for t, _, _ in rows]
    columns = [[a for _, a, _ in rows], [b for _, _, b in rows]]
    batch = ColumnarEvents(timestamps, columns)
    expected = [Event(t, (a, b)) for t, a, b in rows]
    for built in (batch.materialize(), list(batch),
                  list(Event.from_columns(timestamps, columns))):
        assert [type(e) for e in built] == [Event] * len(rows)
        assert repr(built) == repr(expected)
