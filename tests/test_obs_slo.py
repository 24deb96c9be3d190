"""Rolling-window SLO primitives: counters, histograms, the tracker.

Every test drives an injected fake clock, so window expiry is exact —
no sleeps, no wall-clock flakiness.
"""

import pytest

from repro.obs import slo
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import RollingCounter, RollingHistogram, SLOTracker


class FakeClock:
    def __init__(self, t=1000.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class TestRollingCounter:
    def test_counts_within_the_window(self):
        clock = FakeClock()
        c = RollingCounter(window=60.0, clock=clock)
        c.inc()
        c.inc(4)
        assert c.total() == 5
        assert c.rate() == pytest.approx(5 / 60.0)

    def test_old_slices_expire(self):
        clock = FakeClock()
        c = RollingCounter(window=60.0, clock=clock)
        c.inc(10)
        clock.advance(30.0)
        c.inc(1)
        assert c.total() == 11
        # First increment is now > window in the past; second survives.
        clock.advance(35.0)
        assert c.total() == 1
        clock.advance(60.0)
        assert c.total() == 0

    def test_slot_reuse_zeroes_stale_counts(self, monkeypatch):
        monkeypatch.setattr(slo, "SLICES", 3)
        clock = FakeClock()
        c = RollingCounter(window=12.0, clock=clock)
        c.inc(7)
        # Come back exactly one full ring revolution later: the write
        # lands on the same slot, which must not still hold the 7.
        clock.advance(12.0)
        c.inc(1)
        assert c.total() == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RollingCounter(window=0.0)


class TestRollingHistogram:
    def test_quantiles_resolve_to_bucket_bounds(self, monkeypatch):
        monkeypatch.setattr(slo, "DEFAULT_LATENCY_BUCKETS", (0.01, 0.1, 1.0))
        clock = FakeClock()
        h = RollingHistogram(window=60.0, clock=clock)
        for v in (0.005, 0.005, 0.05, 0.5):
            h.observe(v)
        assert h.count() == 4
        assert h.quantile(0.5) == 0.01
        assert h.quantile(1.0) == 1.0

    def test_overflow_clamps_to_last_finite_bound(self, monkeypatch):
        monkeypatch.setattr(slo, "DEFAULT_LATENCY_BUCKETS", (0.01, 0.1))
        h = RollingHistogram(clock=FakeClock())
        h.observe(99.0)
        assert h.quantile(0.99) == 0.1

    def test_empty_window_reads_zero(self):
        h = RollingHistogram(clock=FakeClock())
        assert h.count() == 0
        assert h.quantile(0.99) == 0.0

    def test_observations_expire_with_the_window(self, monkeypatch):
        monkeypatch.setattr(slo, "SLICES", 5)
        clock = FakeClock()
        h = RollingHistogram(window=10.0, clock=clock)
        h.observe(0.5)
        assert h.count() == 1
        clock.advance(11.0)
        assert h.count() == 0
        assert h.quantile(0.5) == 0.0

    def test_validation(self):
        h = RollingHistogram(clock=FakeClock())
        with pytest.raises(ValueError):
            h.quantile(1.5)


class TestSLOTracker:
    @pytest.fixture
    def make(self, monkeypatch):
        """A tracker on ``clock`` whose objectives are the given
        ``P50_MS`` / ``P99_MS`` / ``WINDOW_SECONDS``."""

        def make(clock, **objectives):
            for name, value in objectives.items():
                monkeypatch.setattr(slo, name, value)
            return SLOTracker(clock=clock)

        return make

    def test_healthy_window_is_not_breaching(self, make):
        tracker = make(FakeClock(), P50_MS=50.0, P99_MS=250.0)
        for _ in range(100):
            tracker.record_request()
            tracker.observe_latency(0.002)
        snap = tracker.snapshot()
        assert snap["requests"] == 100
        assert snap["breaching"] is False
        assert all(b <= 1.0 for b in snap["burn_rates"].values())

    def test_slow_requests_breach_the_latency_objective(self, make):
        tracker = make(FakeClock(), P50_MS=1.0, P99_MS=5.0)
        for _ in range(10):
            tracker.record_request()
            tracker.observe_latency(0.5)  # 500 ms against 1/5 ms targets
        snap = tracker.snapshot()
        assert snap["breaching"] is True
        assert snap["burn_rates"]["p50"] > 1.0
        assert snap["burn_rates"]["p99"] > 1.0

    def test_breach_clears_once_the_window_rolls(self, make):
        clock = FakeClock()
        tracker = make(clock, P50_MS=1.0, WINDOW_SECONDS=10.0)
        tracker.record_request()
        tracker.observe_latency(1.0)
        assert tracker.snapshot()["breaching"] is True
        clock.advance(11.0)
        snap = tracker.snapshot()
        assert snap["requests"] == 0
        assert snap["breaching"] is False

    def test_export_gauges_publishes_burn_rates(self, make):
        tracker = make(FakeClock(), P50_MS=10.0, P99_MS=100.0)
        for _ in range(10):
            tracker.record_request()
            tracker.observe_latency(0.05)
        registry = MetricsRegistry()
        tracker.export_gauges(registry)
        burn = registry.gauge("repro_slo_burn_rate", objective="p50")
        assert burn.value > 1.0
        p50 = registry.gauge("repro_slo_latency_ms", quantile="0.5")
        assert p50.value > 0.0

    def test_snapshot_is_json_shaped(self):
        import json

        tracker = SLOTracker(clock=FakeClock())
        tracker.record_request()
        tracker.observe_latency(0.01)
        snap = json.loads(json.dumps(tracker.snapshot()))
        assert set(snap) == {
            "window_seconds",
            "requests",
            "p50_ms",
            "p99_ms",
            "targets",
            "burn_rates",
            "breaching",
        }
