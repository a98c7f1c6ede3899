"""The percentile and sample-count rule behind eval_ms_tail."""

import pytest

from run import TAIL_BEYOND, tail


@pytest.mark.parametrize("n", [11, 12, 60, 100, 1000])
def test_tail_leaves_exactly_ten_samples_beyond(n):
    samples = [float(i) for i in range(n, 0, -1)]  # unsorted on purpose
    value, pct = tail(samples)
    assert sum(s > value for s in samples) == TAIL_BEYOND
    assert pct == pytest.approx(100.0 * (n - TAIL_BEYOND) / n)


def test_tail_percentile_is_the_highest_with_ten_beyond():
    value, pct = tail(list(range(100)))
    assert (value, pct) == (89.0, 90.0)
    value, pct = tail(list(range(60)))
    assert value == 49.0
    assert pct == pytest.approx(83.333, abs=1e-3)


@pytest.mark.parametrize("n", [0, 1, TAIL_BEYOND])
def test_tail_needs_more_than_ten_samples(n):
    with pytest.raises(ValueError):
        tail([1.0] * n)
