"""Cross-topology maximization regressions (NSFNET boundary case).

NSFNET is the boundary case of Theorem 4: its shortest-path route set
realizes the worst-case feedback exactly, so alpha*_SP equals the lower
bound to within solver tolerance — and the greedy heuristic alone can
strand pairs at that boundary.  These tests pin the behavior and the
SP-fallback that restores the guarantee.
"""

import pytest

from repro.config import (
    max_utilization_heuristic,
    max_utilization_shortest_path,
    theorem4_lower_bound,
)
from repro.analysis import single_class_delays
from repro.routing import SafeRouteSelector, shortest_path_routes
from repro.topology import LinkServerGraph, nsfnet_backbone
from repro.traffic import all_ordered_pairs, voice_class


@pytest.fixture(scope="module")
def nsfnet():
    return nsfnet_backbone()


@pytest.fixture(scope="module")
def setup(nsfnet):
    return nsfnet, all_ordered_pairs(nsfnet), voice_class()


def test_sp_achieves_exactly_the_lower_bound(setup):
    net, pairs, voice = setup
    lb = theorem4_lower_bound(4, 3, voice.burst, voice.rate, voice.deadline)
    result = max_utilization_shortest_path(net, pairs, voice,
                                           resolution=0.005)
    # SP is feasible at LB (the bound's constructive witness) ...
    assert result.alpha >= lb - 1e-9
    # ... and NSFNET's SP feedback saturates the bound: no headroom.
    assert result.alpha == pytest.approx(lb, abs=0.01)


def test_heuristic_with_fallback_never_below_lower_bound(setup):
    net, pairs, voice = setup
    lb = theorem4_lower_bound(4, 3, voice.burst, voice.rate, voice.deadline)
    result = max_utilization_heuristic(net, pairs, voice, resolution=0.01)
    assert result.alpha >= lb - 1e-9


def test_bare_heuristic_fails_at_the_boundary(setup):
    """Documented incompleteness: the greedy no-backtrack heuristic alone
    cannot route NSFNET at the lower bound (min-delay detours strand a
    later pair), even though the SP witness exists — which is why
    max_utilization_heuristic falls back to it."""
    net, pairs, voice = setup
    lb = theorem4_lower_bound(4, 3, voice.burst, voice.rate, voice.deadline)
    assert not SafeRouteSelector(net, voice).select(pairs, lb).success
    sp = shortest_path_routes(net, pairs)
    assert single_class_delays(
        LinkServerGraph(net), list(sp.values()), voice, lb
    ).safe
