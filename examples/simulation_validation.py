#!/usr/bin/env python3
"""Packet-level validation of the analytic delay bounds.

Drives the discrete-event simulator with adversarial (envelope-
saturating, simultaneous-burst) voice sources converging on shared MCI
links, and compares the worst packet delay ever observed against the
configuration-time bound of Theorems 1-3.

The bound must dominate — and the measured gap shows how conservative
the worst-case analysis is for this traffic mix.

Run:  python examples/simulation_validation.py
"""

import numpy as np

from repro import (
    PacketPattern,
    Simulator,
    mci_backbone,
    single_class_delays,
    voice_class,
)
from repro.experiments import format_table
from repro.topology import LinkServerGraph
from repro.traffic import ClassRegistry, FlowSpec

# Four traffic trunks funneling into the Chicago -> NewYork -> Boston
# corridor: a deliberately unfriendly convergence pattern.
ROUTES = [
    ["Seattle", "Chicago", "NewYork", "Boston"],
    ["Denver", "Chicago", "NewYork", "Boston"],
    ["KansasCity", "Chicago", "NewYork", "Boston"],
    ["Atlanta", "Chicago", "NewYork", "Boston"],
]
ALPHA = 0.02           # 2 Mbps of every 100 Mbps link reserved for voice
FLOWS_PER_TRUNK = 15   # 60 flows * 32 kbps = 1.92 Mbps (admissible)
HORIZON = 2.0


def main() -> None:
    network = mci_backbone()
    graph = LinkServerGraph(network)
    voice = voice_class()
    registry = ClassRegistry.two_class(voice)

    bound = single_class_delays(graph, ROUTES, voice, ALPHA)
    assert bound.safe

    sim = Simulator(graph, registry)
    fid = 0
    for route in ROUTES:
        for _ in range(FLOWS_PER_TRUNK):
            sim.add_flow(
                FlowSpec(f"v{fid}", "voice", route[0], route[-1]),
                route,
                PacketPattern("greedy", packet_size=640, seed=fid),
            )
            fid += 1
    report = sim.run(horizon=HORIZON)
    assert report.conserved

    measured = report.max_e2e("voice")
    sf_constant = 4 * 640 / 100e6  # store-and-forward + ingress quantum
    print(
        format_table(
            ["quantity", "value"],
            [
                ["flows", fid],
                ["packets simulated", report.packets_delivered],
                ["events processed", f"{report.events_processed:,}"],
                ["analytic worst-case bound",
                 f"{bound.worst_route_delay * 1e3:.3f} ms"],
                ["measured worst delay", f"{measured * 1e3:.3f} ms"],
                ["measured mean delay",
                 f"{report.mean_e2e('voice') * 1e3:.3f} ms"],
                ["measured p99.9",
                 f"{np.percentile(report.e2e['voice'], 99.9) * 1e3:.3f} ms"],
                ["bound headroom",
                 f"{bound.worst_route_delay / measured:.1f}x"],
            ],
            title="Adversarial simulation vs Theorem 1-3 bound",
        )
    )
    assert measured <= bound.worst_route_delay + sf_constant
    print()
    print("The configuration-time bound dominated every one of "
          f"{report.packets_delivered} packets, as Theorems 1-3 promise.")
    print("The headroom is the price of a *hard* guarantee: the bound "
          "must cover the worst admissible flow placement, not just "
          "this one.")


if __name__ == "__main__":
    main()
