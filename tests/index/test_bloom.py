import pytest

from repro.errors import ConfigError
from repro.index import BloomFilter


def test_no_false_negatives():
    bloom = BloomFilter(1000, 0.01)
    keys = [f"key-{i}" for i in range(1000)]
    for key in keys:
        bloom.add(key)
    assert all(key in bloom for key in keys)


def test_false_positive_rate_reasonable():
    bloom = BloomFilter(2000, 0.01)
    for i in range(2000):
        bloom.add(i)
    false_positives = sum(1 for i in range(2000, 12000) if i in bloom)
    assert false_positives / 10000 < 0.05


def test_empty_filter_rejects_everything():
    bloom = BloomFilter(100)
    assert "anything" not in bloom
    assert bloom.fill_ratio == 0.0


def test_serialization_roundtrip():
    bloom = BloomFilter(500, 0.02)
    for i in range(500):
        bloom.add(i * 1.5)
    restored = BloomFilter.from_bytes(bloom.to_bytes(), 500, 0.02)
    assert all((i * 1.5) in restored for i in range(500))
    assert restored.item_count == 500


def test_invalid_parameters():
    with pytest.raises(ConfigError):
        BloomFilter(0)
    with pytest.raises(ConfigError):
        BloomFilter(10, 1.5)


def test_float_keys():
    bloom = BloomFilter(10)
    bloom.add(3.25)
    assert 3.25 in bloom


def test_numeric_keys_hash_their_float_value():
    """Postings are float64: 5 and 5.0 (and -0.0 and 0.0, which compare
    equal everywhere else) must probe the same bits."""
    bloom = BloomFilter(10)
    bloom.add(5.0)
    bloom.add(-0.0)
    assert 5 in bloom and 0 in bloom and 0.0 in bloom
    other = BloomFilter(10)
    other.add(5)
    other.add(0.0)
    assert other.to_bytes() == bloom.to_bytes()


def test_vector_and_scalar_paths_set_the_same_bits():
    import numpy as np

    values = np.random.default_rng(3).normal(size=500)
    one_pass, one_by_one = BloomFilter(500), BloomFilter(500)
    one_pass.add_many(values)
    for value in values.tolist():
        one_by_one.add(value)
    assert one_pass.to_bytes() == one_by_one.to_bytes()
    assert all(value in one_pass for value in values.tolist())


@pytest.mark.parametrize("fpr", [0.01, 0.05])
def test_vectorised_false_positive_rate_within_twice_configured(fpr):
    import numpy as np

    rng = np.random.default_rng(4)
    # Measurement-shaped keys: a coarse grid, so bit patterns share most
    # of their mantissa — the hash, not the data, has to spread them.
    present = np.arange(10_000) / 8.0
    absent = (np.arange(20_000) + rng.integers(1, 8, 20_000) / 8.0 + 10_000).tolist()
    bloom = BloomFilter(len(present), fpr)
    bloom.add_many(present)
    false_positives = sum(1 for key in absent if key in bloom)
    assert false_positives / len(absent) <= 2 * fpr
