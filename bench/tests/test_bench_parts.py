"""wall_rel's numerator: a repetition's time with each part at its median."""

import pytest

from run import wall_of_parts


def test_wall_of_parts_sums_each_part_at_its_median():
    parts = [{"a": 1.0, "rest": 5.0}, {"a": 3.0, "rest": 1.0}, {"rest": 3.0}]
    assert wall_of_parts(parts) == pytest.approx(2.0 + 3.0)


def test_wall_of_parts_of_a_single_part_is_the_median_repetition():
    assert wall_of_parts([{"rest": w} for w in (4.0, 9.0, 5.0)]) == pytest.approx(5.0)
