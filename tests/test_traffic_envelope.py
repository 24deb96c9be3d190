"""Envelope algebra: unit tests plus hypothesis properties.

The envelope class is the numerical foundation of both the paper's
configuration-time bound (Theorem 1 uses shifted leaky buckets) and the
flow-aware baseline, so its algebra is tested heavily: closure of the
concave class under +/min/shift/scale, functional correctness of each
operation, and the queueing quantities against hand-computed cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EnvelopeError
from repro.traffic import Envelope, leaky_bucket_envelope


# --------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------- #

# Moderate ranges: the strategy reconstructs y-values by accumulation, so
# extreme magnitude mixes would re-derive slopes with catastrophic
# cancellation and trip the constructor's concavity validation.
reasonable = st.floats(
    min_value=1e-2, max_value=1e3, allow_nan=False, allow_infinity=False
)


@st.composite
def concave_envelopes(draw) -> Envelope:
    """Random concave nondecreasing PL envelopes via decreasing slopes."""
    n = draw(st.integers(min_value=1, max_value=5))
    widths = draw(
        st.lists(reasonable, min_size=max(n - 1, 0), max_size=max(n - 1, 0))
    )
    xs = np.concatenate([[0.0], np.cumsum(widths)]) if widths else np.array([0.0])
    y0 = draw(st.floats(min_value=0.0, max_value=1e3))
    slopes = sorted(
        draw(st.lists(reasonable, min_size=n, max_size=n)), reverse=True
    )
    ys = [y0]
    for i in range(len(xs) - 1):
        ys.append(ys[-1] + slopes[i] * (xs[i + 1] - xs[i]))
    return Envelope(xs, ys, slopes[-1])


@st.composite
def buckets(draw):
    burst = draw(st.floats(min_value=1.0, max_value=1e5))
    rate = draw(st.floats(min_value=1.0, max_value=1e6))
    return leaky_bucket_envelope(burst, rate)


def _sample_points(*envelopes: Envelope) -> np.ndarray:
    xs = np.unique(np.concatenate([e.breaks_x for e in envelopes]))
    extra = np.array([xs[-1] + 0.5, xs[-1] + 3.0, xs[-1] + 17.0])
    mids = (xs[:-1] + xs[1:]) / 2 if xs.size > 1 else np.empty(0)
    return np.unique(np.concatenate([xs, mids, extra]))


def _almost_equal(a: Envelope, b: Envelope, tol: float = 1e-6) -> bool:
    """Approximate functional equality, sampled at merged breakpoints."""
    xs = np.union1d(a.breaks_x, b.breaks_x)
    xs = np.concatenate([xs, [xs[-1] + 1.0, xs[-1] + 2.0]])
    return bool(np.allclose(a(xs), b(xs), rtol=1e-9, atol=tol))


# --------------------------------------------------------------------- #
# construction
# --------------------------------------------------------------------- #

class TestConstruction:
    def test_leaky_bucket_values(self):
        env = leaky_bucket_envelope(640, 32_000)
        assert env(0.0) == 640.0
        assert env(1.0) == pytest.approx(640 + 32_000)
        assert env.burst == 640.0
        assert env.long_term_rate == 32_000.0

    def test_leaky_bucket_clamped(self):
        env = leaky_bucket_envelope(640, 32_000, line_rate=100e6)
        # Before the kink the wire limits: F(I) = C*I.
        kink = 640 / (100e6 - 32_000)
        assert env(kink / 2) == pytest.approx(100e6 * kink / 2)
        assert env(1.0) == pytest.approx(640 + 32_000, rel=1e-9)
        assert env.burst == 0.0  # clamp removes the instantaneous burst

    def test_clamp_requires_line_faster_than_rate(self):
        with pytest.raises(EnvelopeError):
            leaky_bucket_envelope(640, 32_000, line_rate=1_000)

    def test_constant_rate(self):
        env = Envelope.affine(0.0, 5.0)
        assert env(3.0) == pytest.approx(15.0)

    def test_zero(self):
        z = Envelope.zero()
        assert z(123.0) == 0.0

    def test_negative_burst_rejected(self):
        with pytest.raises(EnvelopeError):
            leaky_bucket_envelope(-1.0, 10.0)

    def test_non_concave_rejected(self):
        with pytest.raises(EnvelopeError):
            Envelope([0.0, 1.0], [0.0, 1.0], final_slope=5.0)  # slope rises

    def test_decreasing_rejected(self):
        with pytest.raises(EnvelopeError):
            Envelope([0.0, 1.0], [5.0, 1.0], final_slope=0.0)

    def test_first_break_must_be_zero(self):
        with pytest.raises(EnvelopeError):
            Envelope([1.0], [0.0], 1.0)

    def test_immutability(self):
        env = leaky_bucket_envelope(10, 1)
        with pytest.raises(AttributeError):
            env.final_slope = 2.0

    def test_collinear_simplification(self):
        env = Envelope([0.0, 1.0, 2.0], [0.0, 2.0, 4.0], final_slope=2.0)
        assert env.breaks_x.size == 1  # pure line collapses to one point

    def test_negative_argument_rejected(self):
        env = leaky_bucket_envelope(10, 1)
        with pytest.raises(EnvelopeError):
            env(-0.5)


# --------------------------------------------------------------------- #
# algebra: functional correctness
# --------------------------------------------------------------------- #

class TestAlgebra:
    def test_sum_pointwise(self):
        a = leaky_bucket_envelope(100, 10)
        b = leaky_bucket_envelope(50, 20, line_rate=1_000)
        s = a + b
        for x in (0.0, 0.01, 0.5, 2.0, 100.0):
            assert s(x) == pytest.approx(a(x) + b(x), rel=1e-12)

    def test_sum_builtin(self):
        envs = [leaky_bucket_envelope(10 * i, i) for i in range(1, 4)]
        total = sum(envs)  # uses __radd__ with 0
        assert total(1.0) == pytest.approx(sum(e(1.0) for e in envs))

    def test_scale_matches_repeated_sum(self):
        e = leaky_bucket_envelope(640, 32_000)
        assert _almost_equal(e.scale(3), e + e + e)

    def test_scale_zero_is_zero(self):
        assert _almost_equal(
            leaky_bucket_envelope(1, 1).scale(0), Envelope.zero()
        )

    def test_scale_negative_rejected(self):
        with pytest.raises(EnvelopeError):
            leaky_bucket_envelope(1, 1).scale(-1)

    def test_shift_is_translation(self):
        e = leaky_bucket_envelope(640, 32_000, line_rate=1e6)
        s = e.shift(0.25)
        for x in (0.0, 0.1, 1.0, 5.0):
            assert s(x) == pytest.approx(e(x + 0.25), rel=1e-12)

    def test_shift_zero_identity(self):
        e = leaky_bucket_envelope(640, 32_000)
        assert e.shift(0.0) is e

    def test_shift_negative_rejected(self):
        with pytest.raises(EnvelopeError):
            leaky_bucket_envelope(1, 1).shift(-0.1)

    def test_shift_beyond_breakpoints(self):
        e = leaky_bucket_envelope(640, 32_000, line_rate=1e6)
        far = e.shift(10.0)
        assert far.breaks_x.size == 1
        assert far(0.0) == pytest.approx(e(10.0))

    def test_minimum_pointwise(self):
        a = leaky_bucket_envelope(1000, 10)
        b = Envelope.affine(0.0, 500)
        m = a.minimum(b)
        for x in (0.0, 0.5, 1.0, 2.0, 3.0, 10.0):
            assert m(x) == pytest.approx(min(a(x), b(x)), rel=1e-9)

    def test_clamp_rate_is_min_with_line(self):
        e = leaky_bucket_envelope(640, 32_000)
        clamped = e.clamp_rate(100e6)
        line = Envelope.affine(0.0, 100e6)
        assert _almost_equal(clamped, e.minimum(line))


# --------------------------------------------------------------------- #
# queueing quantities
# --------------------------------------------------------------------- #

class TestQueueing:
    def test_leaky_bucket_delay_is_burst_over_rate(self):
        # Classic single-server result: d = T / C for an (T, rho) source.
        e = leaky_bucket_envelope(640, 32_000)
        assert e.max_delay(1e6) == pytest.approx(640 / 1e6)

    def test_aggregate_delay(self):
        # n homogeneous buckets through rate C: d = n*T / C.
        e = leaky_bucket_envelope(640, 32_000).scale(10)
        assert e.max_delay(1e6) == pytest.approx(6_400 / 1e6)

    def test_unstable_raises(self):
        e = leaky_bucket_envelope(640, 2e6)
        with pytest.raises(EnvelopeError):
            e.max_delay(1e6)

    def test_backlog_hand_case(self):
        # F = min(1000*I, 100 + 10*I), C = 50:
        # max at the kink I* = 100/990, F = 1000*I* ~ 101.0101
        e = leaky_bucket_envelope(100, 10, line_rate=1000)
        kink = 100 / 990
        expected = 1000 * kink - 50 * kink
        assert e.max_backlog(50) == pytest.approx(expected)

    def test_delay_zero_for_smooth_traffic(self):
        e = Envelope.affine(0.0, 10.0)
        assert e.max_delay(10.0) == 0.0


# --------------------------------------------------------------------- #
# hypothesis properties
# --------------------------------------------------------------------- #

@settings(max_examples=60, deadline=None)
@given(concave_envelopes(), concave_envelopes())
def test_prop_sum_matches_pointwise(a, b):
    s = a + b
    xs = _sample_points(a, b, s)
    np.testing.assert_allclose(s(xs), a(xs) + b(xs), rtol=1e-9, atol=1e-6)


@settings(max_examples=60, deadline=None)
@given(concave_envelopes(), concave_envelopes())
def test_prop_min_matches_pointwise(a, b):
    m = a.minimum(b)
    xs = _sample_points(a, b, m)
    np.testing.assert_allclose(
        m(xs), np.minimum(a(xs), b(xs)), rtol=1e-9, atol=1e-6
    )


@settings(max_examples=60, deadline=None)
@given(
    concave_envelopes(),
    st.floats(min_value=0.0, max_value=100.0),
)
def test_prop_shift_translates(e, delay):
    s = e.shift(delay)
    xs = _sample_points(e, s)
    np.testing.assert_allclose(s(xs), e(xs + delay), rtol=1e-9, atol=1e-6)


@settings(max_examples=60, deadline=None)
@given(
    concave_envelopes(),
    st.floats(min_value=0.1, max_value=50.0),
    st.floats(min_value=0.1, max_value=50.0),
)
def test_prop_shift_composes(e, a, b):
    assert _almost_equal(e.shift(a).shift(b), e.shift(a + b), tol=1e-4)


@settings(max_examples=60, deadline=None)
@given(concave_envelopes())
def test_prop_operations_preserve_class(e):
    # Every result re-validates its own invariants in __init__;
    # reaching here means closure held.
    (e + e).scale(2).shift(1.0).minimum(e)


@settings(max_examples=60, deadline=None)
@given(buckets(), st.floats(min_value=0.0, max_value=10.0))
def test_prop_shift_dominates(e, delay):
    # Jitter only inflates a constraint function: F(I+y) >= F(I).
    s = e.shift(delay)
    xs = _sample_points(e, s)
    assert np.all(s(xs) >= e(xs) - 1e-9)


@settings(max_examples=60, deadline=None)
@given(buckets())
def test_prop_delay_nonnegative_and_stable(e):
    c = e.long_term_rate * 2 + 1.0
    d = e.max_delay(c)
    assert d >= 0.0
    # Backlog/delay consistency.
    assert e.max_backlog(c) == pytest.approx(d * c)
