"""Backoff and degraded-mode policies."""

import pytest

from repro.errors import FaultInjectionError
from repro.faults import BackoffPolicy, DegradedModePolicy


class TestBackoffPolicy:
    def test_exponential_delays(self):
        policy = BackoffPolicy(base=0.1, max_retries=3)
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(1) == pytest.approx(0.2)
        assert policy.delay(2) == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(FaultInjectionError):
            BackoffPolicy(base=0.0)
        with pytest.raises(FaultInjectionError):
            BackoffPolicy(max_retries=-1)


class TestDegradedModePolicy:
    def test_defaults_valid(self):
        policy = DegradedModePolicy()
        assert 0 < policy.alpha_factor <= 1
        assert policy.repair_latency == 0.0

    def test_validation(self):
        with pytest.raises(FaultInjectionError):
            DegradedModePolicy(alpha_factor=0.0)
        with pytest.raises(FaultInjectionError):
            DegradedModePolicy(alpha_factor=1.5)
        with pytest.raises(FaultInjectionError):
            DegradedModePolicy(repair_latency=-1.0)
