"""Unit tests for measurement primitives."""

import pytest

from repro.sim import (
    LatencyRecorder,
    TimeWeightedValue,
    percentile,
    summarize,
)


class TestPercentile:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)

    def test_single_element(self):
        assert percentile([42.0], 99.0) == 42.0

    def test_min_max(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 100.0) == 4.0

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5

    def test_p99_of_uniform(self):
        values = [float(i) for i in range(101)]
        assert percentile(values, 99.0) == 99.0


class TestTimeWeightedValue:
    def test_constant_value(self):
        tw = TimeWeightedValue(initial=2.0)
        assert tw.average(10.0) == 2.0

    def test_step_change(self):
        tw = TimeWeightedValue(initial=0.0)
        tw.set(4.0, now=5.0)  # 0 for [0,5), 4 for [5,10)
        assert tw.average(10.0) == 2.0

    def test_add_delta(self):
        tw = TimeWeightedValue(initial=1.0)
        tw.add(1.0, now=5.0)
        assert tw.value == 2.0
        assert tw.average(10.0) == 1.5

    def test_zero_elapsed_returns_current(self):
        tw = TimeWeightedValue(initial=3.0)
        assert tw.average(0.0) == 3.0

    def test_reset_restarts_window(self):
        tw = TimeWeightedValue(initial=0.0)
        tw.set(10.0, now=5.0)
        tw.reset(now=5.0)
        assert tw.average(10.0) == 10.0


class TestLatencyRecorder:
    def test_empty_mean_raises(self):
        rec = LatencyRecorder()
        with pytest.raises(ValueError):
            rec.mean()

    def test_mean_and_percentiles(self):
        rec = LatencyRecorder()
        for v in [1.0, 2.0, 3.0, 4.0, 5.0]:
            rec.record(v)
        assert rec.mean() == 3.0
        assert rec.p50() == 3.0
        assert rec.max() == 5.0
        assert len(rec) == 5

    def test_warmup_skips_prefix(self):
        rec = LatencyRecorder(warmup_fraction=0.5)
        for v in [100.0, 100.0, 1.0, 1.0]:
            rec.record(v)
        assert rec.mean() == 1.0
        assert rec.count == 2

    def test_bad_warmup_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder(warmup_fraction=1.0)

    def test_summary_keys(self):
        rec = LatencyRecorder()
        for v in range(100):
            rec.record(float(v))
        summary = rec.summary()
        assert set(summary) == {"count", "mean", "p50", "p95", "p99", "max"}
        assert summary["count"] == 100
        assert summary["max"] == 99.0


class TestLatencyRecorderSortedCache:
    def test_cache_invalidated_on_record(self):
        rec = LatencyRecorder()
        rec.record(5.0)
        assert rec.pct(100.0) == 5.0
        rec.record(9.0)  # must not serve the stale one-element view
        assert rec.pct(100.0) == 9.0
        assert rec.pct(0.0) == 5.0

    def test_repeated_pct_reuses_sorted_view(self):
        rec = LatencyRecorder()
        for v in [3.0, 1.0, 2.0]:
            rec.record(v)
        first = rec._effective_sorted()
        assert rec._effective_sorted() is first
        rec.record(0.5)
        assert rec._effective_sorted() is not first

    def test_warmup_slicing_applies_to_cached_view(self):
        rec = LatencyRecorder(warmup_fraction=0.25)
        for v in [100.0, 4.0, 2.0, 3.0]:
            rec.record(v)
        # One warmup sample skipped, remainder sorted once.
        assert rec.pct(0.0) == 2.0
        assert rec.pct(100.0) == 4.0
        assert rec.summary()["count"] == 3

    def test_single_element_percentile_bounds(self):
        rec = LatencyRecorder()
        rec.record(7.0)
        assert rec.pct(0.0) == rec.pct(50.0) == rec.pct(100.0) == 7.0


class TestTimeWeightedValueReset:
    def test_reset_keeps_current_value(self):
        tw = TimeWeightedValue(initial=2.0)
        tw.set(8.0, now=4.0)
        tw.reset(now=4.0)
        assert tw.value == 8.0
        assert tw.average(8.0) == 8.0

    def test_reset_discards_history(self):
        tw = TimeWeightedValue(initial=100.0)
        tw.set(0.0, now=10.0)
        tw.reset(now=10.0)
        tw.set(4.0, now=12.0)
        # Average over [10, 14]: two units at 0, two at 4.
        assert tw.average(14.0) == 2.0


class TestSummarize:
    def test_empty(self):
        assert summarize([]) == {"count": 0}

    def test_ordering_of_percentiles(self):
        summary = summarize([float(i) for i in range(1000)])
        assert summary["p50"] <= summary["p95"] <= summary["p99"] <= summary["max"]
