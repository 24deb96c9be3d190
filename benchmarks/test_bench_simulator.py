"""Ext-F: packet simulator — analytic bound vs adversarial measurement.

Greedy (envelope-saturating) sources converge on shared links; the bench
measures the worst observed end-to-end delay, compares it to the
configuration-time bound, and times the event engine.
"""

import pytest

from repro.analysis import single_class_delays
from repro.experiments import format_table
from repro.simulation import PacketPattern, Simulator
from repro.traffic import FlowSpec

ROUTES = [
    ["Seattle", "Chicago", "NewYork", "Boston"],
    ["Denver", "Chicago", "NewYork", "Boston"],
    ["KansasCity", "Chicago", "NewYork", "Boston"],
    ["Atlanta", "Chicago", "NewYork", "Boston"],
]
ALPHA = 0.02
FLOWS_PER_ROUTE = 15  # 60 flows * 32 kbps = 1.92 Mbps <= alpha * C


def _build(scenario):
    sim = Simulator(scenario.graph, scenario.registry)
    fid = 0
    for route in ROUTES:
        for _ in range(FLOWS_PER_ROUTE):
            sim.add_flow(
                FlowSpec(f"v{fid}", "voice", route[0], route[-1]),
                route,
                PacketPattern("greedy", packet_size=640, seed=fid),
            )
            fid += 1
    return sim


def test_bench_simulator_throughput(benchmark, scenario):
    """Event-engine cost for one second of adversarial traffic."""
    def run():
        return _build(scenario).run(horizon=1.0)

    report = benchmark.pedantic(run, rounds=2, iterations=1)
    assert report.conserved
    assert report.packets_delivered > 1000


def test_bench_bound_vs_measured(benchmark, scenario, capsys):
    report = benchmark.pedantic(
        lambda: _build(scenario).run(horizon=2.0), rounds=1, iterations=1
    )
    bound = single_class_delays(
        scenario.graph, ROUTES, scenario.voice, ALPHA
    )
    measured = report.max_e2e("voice")
    allowance = (3 + 1) * 640 / 100e6  # store-and-forward constant
    with capsys.disabled():
        print()
        print(
            format_table(
                ["quantity", "value"],
                [
                    ["analytic worst-case bound",
                     f"{bound.worst_route_delay * 1e3:.3f} ms"],
                    ["measured worst (greedy)",
                     f"{measured * 1e3:.3f} ms"],
                    ["measured mean", f"{report.mean_e2e('voice') * 1e3:.3f} ms"],
                    ["bound / measured",
                     f"{bound.worst_route_delay / max(measured, 1e-12):.1f}x"],
                    ["packets", report.packets_delivered],
                ],
                title="Analytic bound vs simulation (MCI subset)",
            )
        )
    assert bound.safe
    assert measured <= bound.worst_route_delay + allowance
    assert measured > 0
    # What EXPERIMENTS.md prints, to its digits.
    assert len(ROUTES) * FLOWS_PER_ROUTE == 60
    assert report.packets_delivered == 6000
    assert round(measured * 1e3, 3) == 0.307
    assert round(bound.worst_route_delay * 1e3, 3) == 1.020
    assert round(bound.worst_route_delay / measured, 1) == 3.3
