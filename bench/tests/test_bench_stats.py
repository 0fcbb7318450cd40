import pytest

from dqbench.stats import summarize, tail_percentile


@pytest.mark.parametrize(
    "n, expected",
    [
        (10, None),
        (99, None),  # p90 has rank 90, so only 9 samples lie beyond it
        (100, (90.0, 90.0)),
        (999, (90.0, 900.0)),
        (1000, (99.0, 990.0)),
        (10000, (99.9, 9990.0)),
    ],
)
def test_tail_needs_ten_samples_beyond_it(n, expected):
    samples = [float(v) for v in range(n, 0, -1)]  # 1..n, unsorted
    assert tail_percentile(samples) == expected


def test_summary_reports_median_quartiles_count_and_no_tail_when_short():
    s = summarize([4.0, 1.0, 3.0, 2.0, 5.0])
    assert s["median"] == 3.0 and s["n"] == 5
    assert s["q1"] <= s["median"] <= s["q3"]
    assert "tail" not in s


def test_single_sample_has_no_quartiles():
    assert summarize([2.5]) == {"median": 2.5, "n": 1}

