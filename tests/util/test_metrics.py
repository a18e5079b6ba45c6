"""Tests for the TimeSeries metrics primitive."""

import pytest

from repro.util.metrics import TimeSeries


class TestTimeSeries:
    def test_summary_stats(self):
        ts = TimeSeries("cpu")
        for t, v in enumerate([1.0, 2.0, 3.0, 4.0]):
            ts.record(float(t), v)
        assert ts.mean() == 2.5
        assert ts.max() == 4.0
        assert ts.min() == 1.0
        assert ts.last() == 4.0
        assert ts.total() == 10.0

    def test_percentile_nearest_rank(self):
        ts = TimeSeries()
        for v in range(1, 101):
            ts.record(0.0, float(v))
        assert ts.percentile(50) == 50.0
        assert ts.percentile(95) == 95.0
        assert ts.percentile(100) == 100.0

    def test_percentile_bounds(self):
        ts = TimeSeries()
        ts.record(0, 1)
        with pytest.raises(ValueError):
            ts.percentile(101)

    def test_empty_series_is_safe(self):
        ts = TimeSeries()
        assert ts.mean() == 0.0
        assert ts.stddev() == 0.0
        assert ts.percentile(50) == 0.0
