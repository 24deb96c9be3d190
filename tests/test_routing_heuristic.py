"""The Section 5.2 safe route selection heuristic."""

import re

import numpy as np
import pytest

from repro.analysis import single_class_delays
from repro.errors import NoRouteError, RoutingError
from repro.routing import (
    HeuristicOptions,
    MultiClassRouteSelector,
    SafeRouteSelector,
)
from repro.topology import LinkServerGraph
from repro.traffic import ClassRegistry, TrafficClass, video_class, voice_class


SUBSET = [
    ("Seattle", "Miami"),
    ("Boston", "Phoenix"),
    ("SanFrancisco", "Orlando"),
    ("Detroit", "Houston"),
    ("NewYork", "LosAngeles"),
    ("Denver", "WashingtonDC"),
    ("Chicago", "Dallas"),
    ("Atlanta", "Seattle"),
]


@pytest.fixture(scope="module")
def selector(mci, voice):
    return SafeRouteSelector(mci, voice)


def test_success_routes_every_pair(selector):
    out = selector.select(SUBSET, alpha=0.4)
    assert out.success
    assert set(out.routes) == set(SUBSET)
    assert out.failed_pair is None


def test_routes_are_valid_paths(mci, selector):
    out = selector.select(SUBSET, alpha=0.4)
    for (src, dst), path in out.routes.items():
        assert path[0] == src and path[-1] == dst
        for a, b in zip(path, path[1:]):
            assert mci.has_link(a, b)
        assert len(set(path)) == len(path)  # simple


def test_outcome_is_certified_safe(mci, mci_graph, voice, selector):
    """Independent verification of the returned route set."""
    alpha = 0.45
    out = selector.select(SUBSET, alpha=alpha)
    assert out.success
    check = single_class_delays(
        mci_graph, list(out.routes.values()), voice, alpha
    )
    assert check.safe
    assert check.worst_route_delay == pytest.approx(
        out.worst_route_delay, rel=1e-6
    )


def test_failure_at_absurd_alpha(selector, mci_pairs):
    out = selector.select(mci_pairs, alpha=0.99)
    assert not out.success
    assert out.failed_pair is not None
    assert out.num_routed < len(mci_pairs)


def test_duplicate_pairs_rejected(selector):
    with pytest.raises(RoutingError):
        selector.select([("Seattle", "Miami")] * 2, alpha=0.3)


def _single(network, pairs, ordered):
    options = HeuristicOptions(order_by_distance=ordered)
    return SafeRouteSelector(network, voice_class(), options=options).select(
        pairs, 0.1
    )


# The multi-class selector always routes farthest first: ``ordered``
# reaches only the single-class selector.
def _multi(network, pairs, ordered):
    registry = ClassRegistry([voice_class(), video_class()])
    return MultiClassRouteSelector(network, registry).select(
        {"voice": pairs}, {"voice": 0.1, "video": 0.1}
    )


#: Every entry point that validates and orders a pair list.
ENTRY_POINTS = {"single": _single, "multi": _multi}


@pytest.mark.parametrize("ordered", [True, False])
@pytest.mark.parametrize("pair", [("Seattle", "Nowhere"), ("Nowhere", "Miami")])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_unknown_router_raises_no_route_error(mci, entry, pair, ordered):
    with pytest.raises(NoRouteError, match="Nowhere"):
        ENTRY_POINTS[entry](mci, [("Boston", "Phoenix"), pair], ordered)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_pair_with_one_router_rejected(mci, entry):
    pair = ("Seattle", "Seattle")
    with pytest.raises(RoutingError, match=re.escape(repr(pair))):
        ENTRY_POINTS[entry](mci, [("Boston", "Phoenix"), pair], True)


def test_best_effort_class_rejected(mci):
    with pytest.raises(RoutingError):
        SafeRouteSelector(mci, TrafficClass.best_effort())


def test_distance_ordering(mci, voice):
    """With ordering on, the farthest pair is routed first (and logged
    in insertion order of the routes dict)."""
    sel = SafeRouteSelector(mci, voice)
    out = sel.select(SUBSET, alpha=0.35)
    first_pair = next(iter(out.routes))
    import networkx as nx

    dist = lambda p: nx.shortest_path_length(mci.graph, p[0], p[1])
    assert dist(first_pair) == max(dist(p) for p in SUBSET)


def test_order_toggle_changes_processing(mci, voice):
    sel = SafeRouteSelector(
        mci, voice, options=HeuristicOptions(order_by_distance=False)
    )
    out = sel.select(SUBSET, alpha=0.35)
    assert out.success
    assert list(out.routes) == SUBSET  # given order preserved


def test_full_heuristic_beats_or_matches_crippled(mci, voice, mci_pairs):
    """The full heuristic survives at an alpha where the no-frills variant
    (first-candidate, no ordering, no cycle avoidance) fails — or at
    least never does worse on this scenario."""
    alpha = 0.5
    full = SafeRouteSelector(mci, voice).select(mci_pairs, alpha)
    crippled = SafeRouteSelector(
        mci,
        voice,
        options=HeuristicOptions(
            order_by_distance=False,
            prefer_acyclic=False,
            min_delay_choice=False,
        ),
    ).select(mci_pairs, alpha)
    assert full.success
    if crippled.success:
        assert full.worst_route_delay <= crippled.worst_route_delay + 1e-9


def test_selector_reusable_across_alphas(selector):
    a = selector.select(SUBSET, alpha=0.35)
    b = selector.select(SUBSET, alpha=0.45)
    assert a.success and b.success
    # Internal state (delays) must not leak across calls: re-running the
    # first alpha reproduces the first result exactly.
    a2 = selector.select(SUBSET, alpha=0.35)
    assert a.routes == a2.routes
    assert a.worst_route_delay == pytest.approx(a2.worst_route_delay)


def test_monotone_worst_delay_in_alpha(selector):
    a = selector.select(SUBSET, alpha=0.30)
    b = selector.select(SUBSET, alpha=0.45)
    assert a.worst_route_delay <= b.worst_route_delay + 1e-12
