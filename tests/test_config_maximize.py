"""Binary-search utilization maximization (Section 5.3)."""

import pytest

from repro.analysis import single_class_delays
from repro.config import (
    bisect_alpha,
    max_utilization_heuristic,
    max_utilization_shortest_path,
)
from repro.errors import ConfigurationError, InfeasibleUtilization
from repro.routing import heuristic
from repro.topology import LinkServerGraph

SUBSET = [
    ("Seattle", "Miami"),
    ("Boston", "Phoenix"),
    ("SanFrancisco", "Orlando"),
    ("NewYork", "LosAngeles"),
    ("Denver", "WashingtonDC"),
    ("Chicago", "Dallas"),
]


class TestBinarySearch:
    def test_converges_to_threshold(self):
        threshold = 0.437

        def oracle(alpha, warm):
            return ({"routes": True}, alpha) if alpha <= threshold else None

        best, routes, evals = bisect_alpha(
            oracle, 0.1, 0.9, resolution=0.001
        )
        assert best == pytest.approx(threshold, abs=0.001)
        assert routes is not None
        assert evals[0] == (0.1, True)

    def test_infeasible_low_raises(self):
        with pytest.raises(InfeasibleUtilization):
            bisect_alpha(lambda a, warm: None, 0.1, 0.9)

    def test_entire_interval_feasible(self):
        best, _, _ = bisect_alpha(
            lambda a, warm: ({}, None), 0.1, 0.9, resolution=0.01
        )
        assert best >= 0.9 - 0.01

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            bisect_alpha(lambda a, warm: ({}, None), 0.5, 0.4)
        with pytest.raises(ConfigurationError):
            bisect_alpha(lambda a, warm: ({}, None), 0.1, 0.9, resolution=0)

    def test_warm_is_the_delays_of_the_highest_feasible_probe(self):
        threshold = 0.437
        seen = []

        def oracle(alpha, warm):
            seen.append((alpha, warm))
            return ("witness", alpha) if alpha <= threshold else None

        _, _, evals = bisect_alpha(oracle, 0.1, 0.9, resolution=0.001)
        assert seen[0] == (0.1, None)
        best = 0.1
        for (alpha, warm), (probed, ok) in zip(seen, evals):
            assert probed == alpha
            if alpha != 0.1:
                assert warm == best
            if ok:
                best = alpha

    def test_zero_floor_is_not_probed(self):
        evals_seen = []

        def oracle(alpha, warm):
            evals_seen.append(alpha)
            return ("witness", None) if alpha <= 0.2 else None

        best, _, evals = bisect_alpha(oracle, 0.0, 0.8, resolution=0.01)
        assert evals[0] == (0.4, False)
        assert 0.0 not in evals_seen
        assert 0.19 <= best <= 0.2
        with pytest.raises(InfeasibleUtilization):
            bisect_alpha(lambda a, warm: None, 0.0, 0.8, resolution=0.01)


class TestShortestPathSearch:
    def test_result_within_bounds(self, mci, voice):
        res = max_utilization_shortest_path(
            mci, SUBSET, voice, resolution=0.01
        )
        assert res.bounds.lower - 1e-9 <= res.alpha <= res.bounds.upper
        assert res.method == "shortest-path"
        assert set(res.routes) == set(SUBSET)

    def test_result_is_certified(self, mci, mci_graph, voice):
        res = max_utilization_shortest_path(
            mci, SUBSET, voice, resolution=0.01
        )
        check = single_class_delays(
            mci_graph, list(res.routes.values()), voice, res.alpha
        )
        assert check.safe

    def test_evaluation_trace_recorded(self, mci, voice):
        res = max_utilization_shortest_path(
            mci, SUBSET, voice, resolution=0.02
        )
        assert len(res.evaluations) >= 3
        assert res.evaluations[0][1]  # the lower bound succeeded


class TestHeuristicSearch:
    def test_beats_shortest_path_on_full_demand(self, mci, mci_pairs, voice):
        """The paper's headline claim at table-level granularity."""
        sp = max_utilization_shortest_path(
            mci, mci_pairs, voice, resolution=0.02
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(heuristic, "K_CANDIDATES", 6)
            patch.setattr(heuristic, "DETOUR_SLACK", 1)
            heur = max_utilization_heuristic(
                mci, mci_pairs, voice, resolution=0.02
            )
        assert heur.alpha > sp.alpha
        assert heur.method == "heuristic"

    def test_certified_on_subset(self, mci, mci_graph, voice):
        res = max_utilization_heuristic(mci, SUBSET, voice, resolution=0.02)
        check = single_class_delays(
            mci_graph, list(res.routes.values()), voice, res.alpha
        )
        assert check.safe
