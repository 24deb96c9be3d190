"""Theorem 3 closed forms."""

import numpy as np
import pytest

from repro.analysis import (
    beta_coefficient,
    theorem3_delay,
    uniform_worst_delay,
)
from repro.errors import AnalysisError

RHO = 32_000.0
T = 640.0
D = 0.1


def test_beta_formula():
    # beta = alpha*(N-1) / (rho*(N-alpha))
    assert beta_coefficient(0.3, RHO, 6) == pytest.approx(
        0.3 * 5 / (RHO * 5.7)
    )


def test_beta_zero_for_single_input_link():
    assert beta_coefficient(0.5, RHO, 1) == 0.0


def test_beta_vectorized():
    out = beta_coefficient(0.3, RHO, np.array([2, 4, 6]))
    assert out.shape == (3,)
    assert out[2] == pytest.approx(beta_coefficient(0.3, RHO, 6))


def test_beta_monotone_in_alpha():
    betas = [beta_coefficient(a, RHO, 6) for a in (0.1, 0.3, 0.5, 0.9)]
    assert betas == sorted(betas)


def test_beta_invalid_alpha():
    with pytest.raises(AnalysisError):
        beta_coefficient(0.0, RHO, 6)
    with pytest.raises(AnalysisError):
        beta_coefficient(1.2, RHO, 6)


def test_beta_invalid_rho():
    with pytest.raises(AnalysisError):
        beta_coefficient(0.5, 0.0, 6)


def test_theorem3_matches_paper_form():
    # d = (T + rho*Y)*alpha/rho + (alpha - 1)*alpha*(T + rho*Y)/(rho*(N - alpha))
    alpha, n, y = 0.3, 6, 0.012
    base = T + RHO * y
    expected = base * alpha / RHO + (alpha - 1) * alpha * base / (
        RHO * (n - alpha)
    )
    assert theorem3_delay(T, RHO, alpha, n, y) == pytest.approx(expected)


def test_theorem3_is_beta_times_traffic():
    alpha, n, y = 0.42, 6, 0.02
    assert theorem3_delay(T, RHO, alpha, n, y) == pytest.approx(
        beta_coefficient(alpha, RHO, n) * (T + RHO * y)
    )


def test_theorem3_vectorized_y():
    ys = np.array([0.0, 0.01, 0.02])
    out = theorem3_delay(T, RHO, 0.3, 6, ys)
    assert out.shape == (3,)
    assert np.all(np.diff(out) > 0)  # increasing in Y


def test_theorem3_rejects_negative_y():
    with pytest.raises(AnalysisError):
        theorem3_delay(T, RHO, 0.3, 6, -0.1)


def test_uniform_worst_delay_anchor():
    # The paper's Table 1 anchor: at alpha = LB = 0.30, L*d == D exactly.
    d = uniform_worst_delay(T, RHO, 0.30, 6, 4)
    assert 4 * d == pytest.approx(D)


def test_uniform_worst_delay_diverges_above_stability():
    assert uniform_worst_delay(T, RHO, 0.38, 6, 4) == float("inf")


def test_uniform_worst_delay_l1_no_feedback():
    d = uniform_worst_delay(T, RHO, 0.5, 6, 1)
    assert d == pytest.approx(beta_coefficient(0.5, RHO, 6) * T)


def test_max_stable_alpha():
    # Eq. 17 has no feedback on one hop or one input link: it stays
    # finite there at any alpha below 1.
    assert np.isfinite(uniform_worst_delay(T, RHO, 0.99, 6, 1))
    assert uniform_worst_delay(T, RHO, 0.99, 1, 4) == 0.0


def test_max_stable_alpha_boundary_behavior():
    # beta*rho*(L-1) = 1  <=>  alpha = N / ((N-1)(L-1) + 1)
    a_star = 6 / ((6 - 1) * (4 - 1) + 1)
    assert np.isfinite(uniform_worst_delay(T, RHO, a_star * 0.999, 6, 4))
    assert uniform_worst_delay(T, RHO, min(a_star * 1.001, 1.0), 6, 4) == float(
        "inf"
    )
