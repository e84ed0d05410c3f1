import pytest

from repro.errors import ConfigError
from repro.events import ColumnarEvents
from repro.ooo import SortedQueue


def run(*ts):
    """A non-decreasing segment of late events; the value tags arrival."""
    return ColumnarEvents(list(ts), [[float(t) for t in ts]])


def test_sorted_drain():
    queue = SortedQueue(10)
    for t in (5, 1, 9, 3):
        queue.add_run(run(t))
    assert queue.drain().timestamps == [1, 3, 5, 9]
    assert len(queue) == 0
    assert not queue.drain()


def test_full_detection():
    queue = SortedQueue(2)
    queue.add_run(run(1))
    assert not queue.is_full
    queue.add_run(run(2))
    assert queue.is_full


def test_min_max():
    queue = SortedQueue(10)
    assert queue.min_t is None and queue.max_t is None
    queue.add_run(run(7))
    queue.add_run(run(2, 3))
    assert queue.min_t == 2 and queue.max_t == 7


def test_duplicate_timestamps_kept():
    queue = SortedQueue(10)
    queue.add_run(run(5))
    queue.add_run(run(5))
    assert len(queue) == 2


def test_equal_timestamps_keep_arrival_order():
    """The stable merge puts an event after every queued event of equal
    ``t`` — the order inserting each one at ``bisect_right`` builds."""
    queue = SortedQueue(100)
    arrivals = [
        ColumnarEvents([4, 4, 6], [["a", "b", "c"]]),
        ColumnarEvents([1, 4, 4], [["d", "e", "f"]]),
        ColumnarEvents([4], [["g"]]),
    ]
    for segment in arrivals[:2]:
        queue.add_run(segment)
    assert queue.window(4, 4).columns == [["a", "b", "e", "f"]]
    queue.add_run(arrivals[2])
    batch = queue.drain()
    assert batch.timestamps == [1, 4, 4, 4, 4, 4, 6]
    assert batch.columns == [["d", "a", "b", "e", "f", "g", "c"]]


def test_window_is_a_time_slice():
    queue = SortedQueue(10)
    queue.add_run(run(2, 4, 6))
    queue.add_run(run(3, 5))
    assert queue.window(3, 5).timestamps == [3, 4, 5]
    assert not queue.window(7, 9)
    assert len(queue) == 5


def test_invalid_capacity():
    with pytest.raises(ConfigError):
        SortedQueue(0)
