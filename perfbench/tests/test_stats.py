"""Percentiles and the sample-count rule."""

import math

import pytest

from perfbench.stats import median, min_samples, percentile


def test_min_samples_rule():
    assert min_samples(0.99) == 1000
    assert min_samples(0.999) == 10000
    assert min_samples(0.5) == 20
    with pytest.raises(ValueError):
        min_samples(1.0)


def test_nearest_rank_percentile():
    samples = list(range(1, 101))  # 1..100
    assert percentile(samples, 0.5) == 50
    assert percentile(samples, 0.99) == 99
    assert percentile(samples, 0.999) == 100
    assert percentile([3.0], 0.99) == 3.0
    assert percentile([5, 1, 4, 2, 3], 0.2) == 1
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_p99_at_the_minimum_sample_count_leaves_ten_beyond():
    samples = [float(i) for i in range(min_samples(0.99))]
    p99 = percentile(samples, 0.99)
    assert p99 == 989.0
    assert sum(1 for s in samples if s > p99) == 10


def test_refused_requests_propagate_as_misses():
    samples = [1.0] * 985 + [math.inf] * 15
    assert percentile(samples, 0.99) == math.inf
    assert median(samples) == 1.0


def test_median():
    assert median([]) == 0.0
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
