"""Theorem 4 utilization bounds."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    theorem4_lower_bound,
    theorem4_upper_bound,
    utilization_bounds,
)
from repro.analysis import uniform_worst_delay
from repro.errors import ConfigurationError

# Paper scenario: N=6, L=4, T=640 b, rho=32 kbps, D=100 ms.
PAPER = dict(fan_in=6, diameter=4, burst=640.0, rate=32_000.0, deadline=0.1)


class TestPaperAnchors:
    def test_lower_bound_is_030(self):
        assert theorem4_lower_bound(**PAPER) == pytest.approx(0.30)

    def test_upper_bound_is_061(self):
        assert theorem4_upper_bound(**PAPER) == pytest.approx(0.61, abs=0.005)

    def test_interval(self):
        b = utilization_bounds(**PAPER)
        assert b.lower == pytest.approx(0.30)
        assert b.upper == pytest.approx(0.6092, abs=1e-3)
        assert b.upper > b.lower


class TestStructure:
    def test_lower_bound_consistent_with_uniform_delay(self):
        """At alpha = LB the uniform worst case saturates the deadline:
        L * d(LB) == D (this is how the bound is derived)."""
        lb = theorem4_lower_bound(**PAPER)
        d = uniform_worst_delay(
            PAPER["burst"], PAPER["rate"], lb, PAPER["fan_in"],
            PAPER["diameter"],
        )
        assert PAPER["diameter"] * d == pytest.approx(PAPER["deadline"])

    def test_l1_bounds(self):
        """Single hop: LB = N/((T/(D rho))(N-1)+1), UB from x = D rho/T + 1."""
        lb = theorem4_lower_bound(6, 1, 640, 32_000, 0.1)
        ub = theorem4_upper_bound(6, 1, 640, 32_000, 0.1)
        # For L = 1 both derivations describe the same single-server case.
        assert lb == pytest.approx(ub)

    def test_monotone_in_deadline(self):
        lbs = [
            theorem4_lower_bound(6, 4, 640, 32_000, d)
            for d in (0.02, 0.05, 0.1, 0.5)
        ]
        ubs = [
            theorem4_upper_bound(6, 4, 640, 32_000, d)
            for d in (0.02, 0.05, 0.1, 0.5)
        ]
        assert lbs == sorted(lbs)
        assert ubs == sorted(ubs)

    def test_monotone_in_burst(self):
        lbs = [
            theorem4_lower_bound(6, 4, t, 32_000, 0.1)
            for t in (160, 640, 2560)
        ]
        assert lbs == sorted(lbs, reverse=True)  # larger bursts hurt

    def test_monotone_in_diameter(self):
        lbs = [
            theorem4_lower_bound(6, l, 640, 32_000, 0.1) for l in (1, 2, 4, 8)
        ]
        assert lbs == sorted(lbs, reverse=True)

    def test_capped_at_one(self):
        # Very loose deadline: both bounds saturate at 100% utilization.
        assert theorem4_upper_bound(6, 1, 1.0, 32_000, 10.0) == 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            theorem4_lower_bound(1, 4, 640, 32_000, 0.1)
        with pytest.raises(ConfigurationError):
            theorem4_lower_bound(6, 0, 640, 32_000, 0.1)
        with pytest.raises(ConfigurationError):
            theorem4_lower_bound(6, 4, 0, 32_000, 0.1)
        with pytest.raises(ConfigurationError):
            theorem4_upper_bound(6, 4, 640, 0, 0.1)
        with pytest.raises(ConfigurationError):
            theorem4_upper_bound(6, 4, 640, 32_000, 0)


params = dict(
    fan_in=st.integers(min_value=2, max_value=32),
    diameter=st.integers(min_value=1, max_value=12),
    burst=st.floats(min_value=1.0, max_value=1e6),
    rate=st.floats(min_value=1.0, max_value=1e9),
    deadline=st.floats(min_value=1e-4, max_value=10.0),
)


@settings(max_examples=200, deadline=None)
@given(**params)
def test_prop_bounds_ordered(fan_in, diameter, burst, rate, deadline):
    lb = theorem4_lower_bound(fan_in, diameter, burst, rate, deadline)
    ub = theorem4_upper_bound(fan_in, diameter, burst, rate, deadline)
    assert 0.0 < lb <= 1.0
    assert 0.0 < ub <= 1.0
    assert lb <= ub + 1e-9


@settings(max_examples=100, deadline=None)
@given(**params)
def test_prop_lower_bound_stable(fan_in, diameter, burst, rate, deadline):
    """The LB never exceeds the stability threshold of the uniform
    recursion (otherwise the bound's own derivation would diverge)."""
    lb = theorem4_lower_bound(fan_in, diameter, burst, rate, deadline)
    d = uniform_worst_delay(burst, rate, lb * (1 - 1e-9), fan_in, diameter)
    assert d != float("inf")
    assert diameter * d <= deadline * (1 + 1e-6)
