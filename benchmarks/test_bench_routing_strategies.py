"""Ext-K: routing-strategy comparison — SP vs least-loaded vs heuristic.

The Section 5.2 heuristic is *delay-driven*.  The natural question is
whether plain load balancing (least-loaded routing, delay-blind) gets the
same utilization win.  This bench certifies each strategy's fixed route
set via :func:`critical_alpha` on the paper's scenario.
"""

import pytest

from repro.config import critical_alpha, max_utilization_heuristic
from repro.experiments import format_table
from repro.routing import least_loaded_routes, shortest_path_routes


@pytest.fixture(scope="module")
def strategy_alphas(scenario):
    graph = scenario.graph
    voice = scenario.voice
    out = {}
    sp = shortest_path_routes(scenario.network, scenario.pairs)
    out["shortest-path"] = critical_alpha(
        graph, list(sp.values()), voice, resolution=2e-3
    )
    ll = least_loaded_routes(scenario.network, scenario.pairs)
    out["least-loaded"] = critical_alpha(
        graph, list(ll.values()), voice, resolution=2e-3
    )
    heur = max_utilization_heuristic(
        scenario.network, scenario.pairs, voice, resolution=0.005
    )
    out["heuristic (Sec 5.2)"] = heur.alpha
    return out


def test_bench_strategy_report(benchmark, strategy_alphas, capsys):
    benchmark.pedantic(lambda: strategy_alphas, rounds=1, iterations=1)
    rows = [
        [name, f"{alpha:.3f}"]
        for name, alpha in strategy_alphas.items()
    ]
    with capsys.disabled():
        print()
        print(
            format_table(
                ["routing strategy", "certified max alpha"],
                rows,
                title="Ext-K: utilization by routing strategy (MCI, VoIP)",
            )
        )
    # The delay-driven heuristic must not lose to either baseline.
    heur = strategy_alphas["heuristic (Sec 5.2)"]
    assert heur >= strategy_alphas["shortest-path"] - 0.005
    assert heur >= strategy_alphas["least-loaded"] - 0.005


def test_bench_least_loaded_timing(benchmark, scenario):
    routes = benchmark(
        least_loaded_routes, scenario.network, scenario.pairs
    )
    assert len(routes) == len(scenario.pairs)


def test_bench_shortest_path_timing(benchmark, scenario):
    routes = benchmark(
        shortest_path_routes, scenario.network, scenario.pairs
    )
    assert len(routes) == len(scenario.pairs)
