import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import QueryError
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


@given(
    st.lists(TRACKED, max_size=40),
    st.lists(st.integers(min_value=0, max_value=40), max_size=5),
)
def test_add_run_over_any_split_equals_per_value_add(values, cuts):
    per_value, batched = RunningCorrelation(), RunningCorrelation()
    for value in values:
        per_value.add(value)
    bounds = [0, *sorted(min(cut, len(values)) for cut in cuts), len(values)]
    for lo, hi in zip(bounds, bounds[1:]):
        batched.add_run(values[lo:hi])
    # repr keeps NaN == NaN and tells 0.0 from -0.0.
    assert repr(batched.to_dict()) == repr(per_value.to_dict())
