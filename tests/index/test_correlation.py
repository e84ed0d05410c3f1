import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ChronicleConfig, ChronicleDB, EventSchema
from repro.core.split import TimeSplit
from repro.errors import QueryError
from repro.events import Field, FieldKind
from repro.index import average_distance, temporal_correlation
from repro.index.correlation import RunningCorrelation, minimum_correlation


def test_average_distance_simple():
    assert average_distance([1, 2, 3, 4]) == pytest.approx(1.0)
    assert average_distance([0, 10]) == pytest.approx(10.0)


def test_temporal_correlation_smooth_series_is_high():
    ramp = np.linspace(0.0, 100.0, 1000)
    assert temporal_correlation(ramp) > 0.99


def test_temporal_correlation_alternating_is_zero():
    # Max-distance jumps every step: dist == range, so tc == 0.
    values = [0.0, 1.0] * 50
    assert temporal_correlation(values) == pytest.approx(0.0)


def test_temporal_correlation_constant_is_one():
    assert temporal_correlation([5.0] * 10) == 1.0


def test_temporal_correlation_white_noise_is_low():
    rng = np.random.default_rng(42)
    noise = rng.uniform(0, 1, 20_000)
    tc = temporal_correlation(noise)
    assert 0.55 < tc < 0.75  # expected 2/3 for iid uniform


def test_random_walk_beats_noise():
    rng = np.random.default_rng(7)
    steps = rng.normal(0, 1, 5000)
    walk = np.cumsum(steps)
    assert temporal_correlation(walk) > temporal_correlation(steps)


def test_requires_sequence():
    with pytest.raises(QueryError):
        temporal_correlation([1.0])
    with pytest.raises(QueryError):
        average_distance([])


def test_minimum_correlation_picks_noisiest():
    rng = np.random.default_rng(3)
    smooth = np.cumsum(rng.normal(0, 0.1, 500)) + 100
    noisy = rng.uniform(0, 1, 500)
    name, tc = minimum_correlation({"smooth": smooth, "noisy": noisy})
    assert name == "noisy"
    assert tc == pytest.approx(temporal_correlation(noisy))


def test_minimum_correlation_empty():
    with pytest.raises(QueryError):
        minimum_correlation({})


@given(st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=2, max_size=200))
def test_tc_in_unit_interval(values):
    tc = temporal_correlation(values)
    assert -1e-9 <= tc <= 1.0 + 1e-9


# Cancellation-heavy values: from Python 3.12 builtin `sum` compensates
# float sums, so `sum([1e16, 1.0, -1e16])` is 1.0 there and 0.0 here.
TRACKED = st.one_of(
    st.sampled_from([1e16, -1e16, 1.0, -1.0, 0.5, 0.0, -0.0, float("nan")]),
    st.floats(),
)


@st.composite
def rows_with_specials(draw):
    """(x, n) rows: random floats (sums that round) and random I64 values
    near 2**62, with a few TRACKED values written over x."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(min_value=1, max_value=300))
    xs = [rng.uniform(-1e3, 1e3) for _ in range(n)]
    for i, value in draw(st.lists(st.tuples(st.integers(0, n - 1), TRACKED),
                                  max_size=6)):
        xs[i] = value
    return [(x, rng.randrange(-(2**62), 2**62)) for x in xs]


def ingest_recording(rows, timestamps):
    """Ingest *rows* in batches of 7 (``lblock_size=512``: a leaf holds
    about 20 rows) and record, per split, what its tc is defined over:
    each leaf's rows as they are written, in flush order, then the open
    leaf's at its seal."""
    fed = {}
    flush, seal = TimeSplit._on_leaf_flush, TimeSplit.seal

    def recording_flush(split, leaf, stats):
        if not split.sealed:
            fed.setdefault(split.index, []).extend(zip(*leaf.columns))
        flush(split, leaf, stats)

    def recording_seal(split):
        was_sealed = split.sealed
        seal(split)
        if not was_sealed:
            fed.setdefault(split.index, []).extend(zip(*split.tree.leaf.columns))

    schema = EventSchema([Field("x"), Field("n", FieldKind.I64)])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TimeSplit, "_on_leaf_flush", recording_flush)
        patch.setattr(TimeSplit, "seal", recording_seal)
        db = ChronicleDB(config=ChronicleConfig(
            lblock_size=512, macro_size=2048, queue_capacity=8,
            time_split_interval=300,
        ))
        stream = db.create_stream("s", schema)
        for i in range(0, len(rows), 7):
            chunk = rows[i:i + 7]
            stream.append_columns(timestamps[i:i + 7],
                                  [[x for x, _ in chunk], [n for _, n in chunk]])
        for split in stream.splits:
            split.seal()
    return stream, fed


def per_value_tc(rows) -> str:
    trackers = {"x": RunningCorrelation(), "n": RunningCorrelation()}
    for x, n in rows:
        trackers["x"].add(float(x))
        trackers["n"].add(float(n))
    # repr keeps NaN == NaN and tells 0.0 from -0.0.
    return repr({name: tracker.tc for name, tracker in trackers.items()})


@settings(max_examples=60, deadline=None)
@given(rows_with_specials(), st.randoms(use_true_random=False),
       st.floats(0.0, 0.5))
def test_split_tc_is_the_per_value_fold_over_its_leaves(rows, rng, late_share):
    """Late rows land in written leaves (not fed) or in a leaf still to
    be written (fed at their storage position)."""
    timestamps = list(range(0, 3 * len(rows), 3))
    for i in range(len(timestamps)):
        if rng.random() < late_share:
            timestamps[i] = rng.randrange(0, timestamps[i] + 1)
    stream, fed = ingest_recording(rows, timestamps)
    for split in stream.splits:
        assert repr(split.tc_scores) == per_value_tc(fed.get(split.index, []))


@settings(max_examples=25, deadline=None)
@given(rows_with_specials())
def test_in_order_tc_is_the_arrival_order_fold(rows):
    timestamps = list(range(0, 3 * len(rows), 3))
    stream, _ = ingest_recording(rows, timestamps)
    for split in stream.splits:
        arrived = [row for row, t in zip(rows, timestamps) if split.covers(t)]
        assert repr(split.tc_scores) == per_value_tc(arrived)
