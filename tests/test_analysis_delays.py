"""Single-class configuration-time delay bounds (Figure 2 pipeline)."""

import numpy as np
import pytest

from repro.analysis import (
    beta_coefficient,
    single_class_delays,
    uniform_worst_delay,
)
from repro.analysis import RouteSystem, theorem3_update
from repro.analysis.delays import route_system, solve_single_class
from repro.errors import AnalysisError
from repro.routing import shortest_path_routes
from repro.topology import LinkServerGraph, line_network, star_network
from repro.traffic import TrafficClass, voice_class


def test_line_route_matches_geometric_closed_form(line4_graph, voice):
    alpha = 0.4
    res = single_class_delays(
        line4_graph, [["r0", "r1", "r2", "r3"]], voice, alpha
    )
    assert res.safe
    n = line4_graph.uniform_fan_in()  # 2 on a chain
    beta = beta_coefficient(alpha, voice.rate, n)
    expected = (voice.burst / voice.rate) * ((1 + beta * voice.rate) ** 3 - 1)
    assert res.worst_route_delay == pytest.approx(expected, rel=1e-6)


def test_best_effort_class_rejected(line4_graph):
    be = TrafficClass.best_effort()
    with pytest.raises(AnalysisError):
        single_class_delays(line4_graph, [["r0", "r1"]], be, 0.3)


def test_one_beta_on_every_touched_server(mci, mci_graph, mci_pairs, voice):
    # One N for every server: the largest router degree (PAPER.md §2),
    # even where a server's own router has fewer input links.  So the
    # map carries one beta on every server a route crosses, 0 elsewhere.
    alpha = 0.3
    paths = list(shortest_path_routes(mci, mci_pairs[:20]).values())
    system = RouteSystem(mci_graph.routes_servers(paths), mci_graph.num_servers)
    beta = beta_coefficient(alpha, voice.rate, mci_graph.uniform_fan_in())
    assert beta == beta_coefficient(alpha, voice.rate, 6)
    update = theorem3_update(system, voice.burst, voice.rate, beta)
    touched = system.touched_servers
    assert update.beta.shape == (mci_graph.num_servers,)
    assert np.all(update.beta[touched] == beta)
    assert np.all(update.beta[~touched] == 0.0)
    assert not np.all(touched)
    fan_in = np.asarray(mci_graph.fan_in)
    assert np.any(fan_in[touched] < 6)


def test_mci_sp_routes_safe_at_lower_bound(mci, mci_graph, mci_pairs, voice):
    """Theorem 4 LB certifies shortest-path routing (with margin)."""
    routes = list(shortest_path_routes(mci, mci_pairs).values())
    res = single_class_delays(mci_graph, routes, voice, 0.2999)
    assert res.safe


def test_mci_sp_routes_unsafe_far_above_upper_bound(
    mci, mci_graph, mci_pairs, voice
):
    routes = list(shortest_path_routes(mci, mci_pairs).values())
    res = single_class_delays(mci_graph, routes, voice, 0.99)
    assert not res.safe


def test_monotone_in_alpha(mci, mci_graph, mci_pairs, voice):
    """Worst-case delay grows with utilization."""
    routes = list(shortest_path_routes(mci, mci_pairs).values())
    worst = []
    for alpha in (0.15, 0.25, 0.35):
        res = single_class_delays(mci_graph, routes, voice, alpha)
        assert res.safe
        worst.append(res.worst_route_delay)
    assert worst == sorted(worst)


def test_route_delay_below_uniform_bound(mci, mci_graph, mci_pairs, voice):
    """The topology-aware fixed point never exceeds the uniform bound."""
    alpha = 0.3
    routes = list(shortest_path_routes(mci, mci_pairs).values())
    res = single_class_delays(mci_graph, routes, voice, alpha)
    d_uniform = uniform_worst_delay(voice.burst, voice.rate, alpha, 6, 4)
    assert res.safe
    assert np.all(res.server_delays <= d_uniform + 1e-12)


def test_slack_and_violations(line4_graph, voice):
    res = single_class_delays(
        line4_graph, [["r0", "r1", "r2", "r3"]], voice, 0.3
    )
    assert res.slack == pytest.approx(
        voice.deadline - res.worst_route_delay
    )
    assert np.all(res.route_delays <= voice.deadline)


def test_warm_start_equivalence(line4_graph, voice):
    routes = [["r0", "r1", "r2"], ["r2", "r1", "r0"]]
    cold = single_class_delays(line4_graph, routes, voice, 0.3)
    warm = solve_single_class(
        line4_graph, route_system(line4_graph, routes), voice, 0.3,
        warm_start=cold.server_delays * 0.9,
    )
    np.testing.assert_allclose(
        warm.server_delays, cold.server_delays, atol=1e-6
    )



def test_star_hub_concentration(voice):
    """All leaf-to-leaf routes share the hub; delays concentrate there."""
    net = star_network(4)
    graph = LinkServerGraph(net)
    routes = [
        [f"leaf{i}", "hub", f"leaf{j}"]
        for i in range(4)
        for j in range(4)
        if i != j
    ]
    res = single_class_delays(graph, routes, voice, 0.3)
    assert res.safe
    hub_out = graph.server_index("hub", "leaf0")
    leaf_out = graph.server_index("leaf0", "hub")
    # A leaf's output is every route's first hop (no upstream delay);
    # the hub's output adds the leaves' delays on top of its own.
    assert 0.0 < res.server_delays[leaf_out] < res.server_delays[hub_out]
