"""The backoff policy and the degraded-mode constants."""

import pytest

from repro.errors import FaultInjectionError
from repro.faults import BackoffPolicy, degraded


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


class TestDegradedMode:
    def test_defaults_valid(self):
        # A degraded ledger admits against a positive fraction of the
        # verified slots, a repair never lands before its failure, and
        # the harness retries a rejected re-admission at least once.
        assert 0 < degraded.ALPHA_FACTOR <= 1
        assert degraded.REPAIR_LATENCY >= 0.0
        assert degraded.BACKOFF.max_retries >= 1
