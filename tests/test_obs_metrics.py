"""Metrics registry semantics: counters, gauges, histograms, no-op twins."""

import math

import pytest

from repro.obs.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullCounter,
    NullGauge,
    NullHistogram,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("c_total")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative_increment(self):
        c = Counter("c_total")
        with pytest.raises(ValueError):
            c.inc(-1.0)


class TestGauge:
    def test_set_inc(self):
        g = Gauge("g")
        g.set(10)
        g.inc(5)
        g.inc(-3)
        assert g.value == 12.0

    def test_max_keeps_high_water_mark(self):
        g = Gauge("g")
        g.max(4)
        g.max(2)
        g.max(7)
        assert g.value == 7.0


class TestHistogram:
    def test_bucket_assignment_upper_bound_inclusive(self):
        h = Histogram("h", bounds=(1.0, 5.0, 10.0))
        for v in (0.5, 1.0, 3.0, 10.0, 11.0):
            h.observe(v)
        # (., 1]: 0.5, 1.0 -- (1, 5]: 3.0 -- (5, 10]: 10.0 -- +Inf: 11.0
        assert h.bucket_counts == [2, 1, 1]
        assert h.overflow == 1
        assert h.count == 5
        assert h.sum == pytest.approx(25.5)
        assert h.mean == pytest.approx(5.1)

    def test_cumulative_counts_end_with_total(self):
        h = Histogram("h", bounds=(1.0, 2.0))
        for v in (0.5, 1.5, 99.0):
            h.observe(v)
        assert h.cumulative_counts() == [1, 2, 3]

    def test_empty_mean_is_nan(self):
        h = Histogram("h", bounds=(1.0,))
        assert math.isnan(h.mean)

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(5.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", bounds=())


class TestRegistry:
    def test_get_or_create_returns_same_series(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", cls="voice")
        b = reg.counter("x_total", cls="voice")
        assert a is b
        a.inc()
        assert b.value == 1.0

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", a="1", b="2")
        b = reg.counter("x_total", b="2", a="1")
        assert a is b

    def test_distinct_labels_are_distinct_series(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", cls="voice")
        b = reg.counter("x_total", cls="video")
        assert a is not b
        assert len(reg) == 2

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x", other="label")

    def test_series_sorted_and_reset(self):
        reg = MetricsRegistry()
        reg.counter("b_total")
        reg.gauge("a")
        names = [s.name for s in reg.series()]
        assert names == ["a", "b_total"]
        reg.reset()
        assert len(reg) == 0
        assert reg.series() == []

    def test_get_never_creates(self):
        reg = MetricsRegistry()
        assert reg.get("missing") is None
        assert len(reg) == 0

    def test_histogram_custom_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1, 2, 3))
        assert h.bounds == (1.0, 2.0, 3.0)


class TestNullRegistry:
    def test_returns_shared_noop_singletons(self):
        c = NULL_REGISTRY.counter("anything", label="x")
        g = NULL_REGISTRY.gauge("anything")
        h = NULL_REGISTRY.histogram("anything")
        assert isinstance(c, NullCounter)
        assert isinstance(g, NullGauge)
        assert isinstance(h, NullHistogram)
        assert c is NULL_REGISTRY.counter("other")
        # mutations are accepted and dropped
        c.inc()
        g.set(5)
        g.max(9)
        h.observe(1.0)
        assert len(NULL_REGISTRY) == 0
        assert NULL_REGISTRY.series() == []
        assert NULL_REGISTRY.get("anything") is None
