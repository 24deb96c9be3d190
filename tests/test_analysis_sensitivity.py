"""What-if analysis: the critical utilization of fixed routes."""

import pytest

from repro.analysis import single_class_delays
from repro.config import critical_alpha
from repro.errors import AnalysisError
from repro.routing import shortest_path_routes


@pytest.fixture(scope="module")
def paths(mci, mci_pairs):
    return list(shortest_path_routes(mci, mci_pairs).values())


class TestCriticalAlpha:
    def test_matches_direct_bisection(self, mci_graph, paths, voice):
        a_star = critical_alpha(
            mci_graph, paths, voice, resolution=1e-3
        )
        # Just below verifies, just above does not.
        assert single_class_delays(
            mci_graph, paths, voice, a_star
        ).safe
        assert not single_class_delays(
            mci_graph, paths, voice, a_star + 3e-3
        ).safe

    def test_is_above_theorem4_lower_bound(self, mci_graph, paths, voice):
        from repro.config import theorem4_lower_bound

        a_star = critical_alpha(mci_graph, paths, voice)
        lb = theorem4_lower_bound(6, 4, voice.burst, voice.rate,
                                  voice.deadline)
        assert a_star >= lb - 1e-3

    def test_everything_safe_returns_high(self, mci_graph, voice):
        # A single one-hop route verifies at any utilization.
        a = critical_alpha(mci_graph, [["Seattle", "Denver"]], voice)
        assert a == 1.0

    def test_unsafe_floor_raises(self, mci_graph, paths):
        from repro.traffic import TrafficClass

        impossible = TrafficClass(
            "tight", burst=640, rate=32_000, deadline=1e-9, priority=1
        )
        with pytest.raises(AnalysisError):
            critical_alpha(mci_graph, paths, impossible)

    def test_validation(self, mci_graph, paths, voice):
        with pytest.raises(AnalysisError):
            critical_alpha(mci_graph, paths, voice, resolution=0.0)
