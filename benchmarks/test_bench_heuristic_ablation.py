"""Ext-C: ablation of the three heuristic components (Section 5.2).

The paper motivates three levers: distance-ordered pairs, cycle-avoiding
candidate preference, and min-delay choice.  This bench runs the safe
route selection at a utilization level (alpha = 0.48) above what
shortest-path routing survives, with each lever toggled, and reports which
variants still find a safe selection and at what delay margin.
"""

import pytest

from repro.experiments import format_table
from repro.routing import HeuristicOptions, SafeRouteSelector

ALPHA = 0.48

VARIANTS = {
    "full": HeuristicOptions(),
    "no-ordering": HeuristicOptions(order_by_distance=False),
    "no-acyclic": HeuristicOptions(prefer_acyclic=False),
    "no-min-delay": HeuristicOptions(min_delay_choice=False),
    "greedy-shortest": HeuristicOptions(
        order_by_distance=False,
        prefer_acyclic=False,
        min_delay_choice=False,
    ),
}

#: (safe, routed, worst delay in ms) per variant.
REPORT = {
    "full": (True, 306, 97.1),
    "no-ordering": (True, 306, 98.9),
    "no-acyclic": (True, 306, 98.3),
    "no-min-delay": (False, 227, None),
    "greedy-shortest": (False, 223, None),
}


@pytest.fixture(scope="module")
def outcomes(scenario):
    results = {}
    for name, options in VARIANTS.items():
        selector = SafeRouteSelector(
            scenario.network, scenario.voice, options=options
        )
        results[name] = selector.select(scenario.pairs, ALPHA)
    return results


def test_bench_ablation_report(benchmark, outcomes, scenario, capsys):
    benchmark.pedantic(lambda: outcomes, rounds=1, iterations=1)
    rows = []
    for name, out in outcomes.items():
        rows.append(
            [
                name,
                "SAFE" if out.success else "FAIL",
                out.num_routed,
                f"{out.worst_route_delay * 1e3:.1f} ms",
                out.candidates_evaluated,
            ]
        )
    with capsys.disabled():
        print()
        print(
            format_table(
                ["variant", "verdict", "routed", "worst delay", "candidates"],
                rows,
                title=f"Heuristic ablation at alpha = {ALPHA}",
            )
        )
    # The full heuristic must survive this level...
    assert outcomes["full"].success
    # ...and dominate every variant that also survives.
    for name, out in outcomes.items():
        if out.success:
            assert (
                outcomes["full"].worst_route_delay
                <= out.worst_route_delay + 1e-9
            )
    # What EXPERIMENTS.md prints, to its digits.
    assert {
        name: (
            out.success,
            out.num_routed,
            round(out.worst_route_delay * 1e3, 1) if out.success else None,
        )
        for name, out in outcomes.items()
    } == REPORT
