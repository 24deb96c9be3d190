"""The eq. (14) fixed-point solver."""

import numpy as np
import pytest

from repro.analysis import (
    RouteSystem,
    beta_coefficient,
    solve_fixed_point,
    theorem3_update,
)
from repro.analysis import fixedpoint
from repro.errors import AnalysisError

T, RHO = 640.0, 32_000.0


def _line_system(hops: int, num_servers: int = None):
    """One route through `hops` distinct servers (feedback-free)."""
    servers = list(range(hops))
    return RouteSystem([servers], num_servers or hops)


def _update(system, alpha, fan_in=6):
    return theorem3_update(
        system, T, RHO, beta_coefficient(alpha, RHO, fan_in)
    )


class TestFeedbackFree:
    def test_geometric_accumulation(self):
        """On a chain, d_k = beta*T*(1 + beta*rho)^(k-1) exactly
        (the closed form behind the Theorem 4 upper bound)."""
        alpha, hops = 0.4, 4
        system = _line_system(hops)
        beta = beta_coefficient(alpha, RHO, 6)
        result = solve_fixed_point(system, _update(system, alpha))
        assert result.converged
        expected = beta * T * (1 + beta * RHO) ** np.arange(hops)
        np.testing.assert_allclose(result.delays, expected, rtol=1e-9)

    def test_route_delay_is_geometric_sum(self):
        alpha, hops = 0.4, 4
        system = _line_system(hops)
        beta = beta_coefficient(alpha, RHO, 6)
        result = solve_fixed_point(system, _update(system, alpha))
        expected = (T / RHO) * ((1 + beta * RHO) ** hops - 1)
        assert result.route_delays[0] == pytest.approx(expected, rel=1e-9)

    def test_single_hop_is_beta_t(self):
        system = _line_system(1)
        result = solve_fixed_point(system, _update(system, 0.3))
        assert result.delays[0] == pytest.approx(
            beta_coefficient(0.3, RHO, 6) * T
        )


class TestFeedback:
    def _cycle(self):
        # Two routes forming a dependency cycle 0 -> 1 -> 0.
        return RouteSystem([[0, 1], [1, 0]], num_servers=2)

    def test_cycle_converges_at_low_alpha(self):
        system = self._cycle()
        result = solve_fixed_point(system, _update(system, 0.2))
        assert result.converged
        # Both servers symmetric: d = beta*(T + rho*d)
        beta = beta_coefficient(0.2, RHO, 6)
        expected = beta * T / (1 - beta * RHO)
        # Iteration stops on an absolute residual, so allow the remaining
        # geometric tail of the contraction in the comparison.
        np.testing.assert_allclose(result.delays, expected, rtol=1e-5)

    def test_cycle_diverges_at_high_alpha(self):
        # beta*rho >= 1 <=> alpha*5/(6-alpha) >= 1 <=> alpha >= 1.
        # With two-server feedback the effective condition is beta*rho >= 1
        # per server, so pick an alpha where beta*rho close to 1 but the
        # deadline cannot be met -> use deadlines for early exit instead.
        system = self._cycle()
        deadlines = np.full(2, 0.1)
        result = solve_fixed_point(
            system, _update(system, 0.9), deadlines=deadlines
        )
        assert not result.safe
        assert result.deadline_violated

    def test_true_divergence_detected(self, monkeypatch):
        system = self._cycle()
        # beta*rho > 1 requires alpha > 1 with N=6; emulate stronger
        # feedback with N=2 where beta*rho = alpha/(2-alpha) stays < 1.
        # Use a 3-cycle with N=6 and alpha close to 1 plus long routes:
        cyc = RouteSystem([[0, 1, 2], [1, 2, 0], [2, 0, 1]], num_servers=3)
        # beta*rho*2 upstream servers of feedback: diverges for
        # beta*rho > 0.5 <=> alpha*5/(6-alpha) > 0.5 <=> alpha > 6/11.
        monkeypatch.setattr(fixedpoint, "DEFAULT_CEILING", 10.0)
        result = solve_fixed_point(cyc, _update(cyc, 0.9))
        assert result.diverged
        assert not result.converged


class TestMechanics:
    def test_warm_start_reaches_same_fixed_point(self):
        system = RouteSystem([[0, 1, 2], [2, 1]], num_servers=3)
        update = _update(system, 0.35)
        cold = solve_fixed_point(system, update)
        # Warm-start from half the solution (below the least fixed point).
        warm = solve_fixed_point(system, update, initial=cold.delays * 0.5)
        assert warm.converged
        np.testing.assert_allclose(warm.delays, cold.delays, atol=1e-7)

    def test_warm_start_above_fixed_point_rejected(self):
        system = _line_system(3)
        update = _update(system, 0.3)
        sol = solve_fixed_point(system, update)
        with pytest.raises(AnalysisError):
            solve_fixed_point(system, update, initial=sol.delays * 10)

    def test_wrong_initial_shape_rejected(self):
        system = _line_system(3)
        with pytest.raises(AnalysisError):
            solve_fixed_point(
                system, _update(system, 0.3), initial=np.zeros(5)
            )

    def test_deadlines_must_be_scalar_or_one_per_route(self):
        system = RouteSystem([[0, 1], [1, 2]], num_servers=3)
        update = _update(system, 0.3)
        for shape in (1, 3, (2, 1)):
            bad = np.full(shape, 10.0)
            with pytest.raises(AnalysisError, match="deadlines"):
                solve_fixed_point(system, update, deadlines=bad)
        scalar = solve_fixed_point(system, update, deadlines=10.0)
        per_route = solve_fixed_point(
            system, update, deadlines=np.full(2, 10.0)
        )
        assert scalar.safe and per_route.safe
        assert np.array_equal(scalar.delays, per_route.delays)

    def test_iteration_budget_reported(self, monkeypatch):
        system = RouteSystem([[0, 1], [1, 0]], num_servers=2)
        monkeypatch.setattr(fixedpoint, "MAX_ITERATIONS", 2)
        result = solve_fixed_point(system, _update(system, 0.3))
        assert not result.converged
        assert result.iterations == 2

    def test_untouched_servers_zero(self):
        system = RouteSystem([[0, 1]], num_servers=4)
        result = solve_fixed_point(system, _update(system, 0.3))
        assert result.delays[2] == 0.0 and result.delays[3] == 0.0

    def test_monotone_iterates(self):
        """Iterates never decrease — the property warm starts rely on."""
        system = RouteSystem([[0, 1, 2], [2, 0]], num_servers=3)
        update = _update(system, 0.35)
        d = update(np.zeros(3))
        for _ in range(50):
            d_next = update(d)
            assert np.all(d_next >= d - 1e-15)
            d = d_next

    def test_deadline_early_exit_is_sound(self):
        """Early-exit failure implies the converged solution also fails."""
        system = RouteSystem([[0, 1], [1, 0]], num_servers=2)
        update = _update(system, 0.9)
        tight = np.full(2, 1e-5)
        early = solve_fixed_point(system, update, deadlines=tight)
        assert early.deadline_violated
        full = solve_fixed_point(system, update)
        if full.converged:
            assert np.any(system.route_delays(full.delays) > tight)
