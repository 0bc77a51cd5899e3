import pytest

from stats import highest_reportable, percentile


def test_percentile_interpolates_and_median_matches():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 50) == 2.5
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize("count, expected", [
    (0, None), (19, None), (20, 50), (99, 50), (100, 90), (199, 90),
    (200, 95), (999, 95), (1000, 99), (9999, 99), (10000, 99.9),
])
def test_highest_percentile_keeps_ten_samples_beyond(count, expected):
    assert highest_reportable(count) == expected
