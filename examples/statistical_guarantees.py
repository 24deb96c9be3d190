#!/usr/bin/env python3
"""Statistical guarantees: the paper's Section 7 outlook, implemented.

"For many applications, deterministic guarantees are not necessary [...]
The quality of IP telephony would not suffer from the underlying system
providing high-quality statistical guarantees instead."  — Section 7.

This example quantifies the trade on a contention hub:

1. the deterministic certificate admits ``alpha * C / rho`` calls per
   link — priced for the worst admissible burst alignment;
2. Poisson call traffic almost never aligns, so the measured delay
   distribution sits far below the worst-case bound;
3. calibrated **overbooking** converts that gap into capacity: the
   largest factor whose simulated deadline-miss upper confidence bound
   stays within a target miss budget.

Run:  python examples/statistical_guarantees.py
"""

from repro import (
    LinkServerGraph,
    UtilizationAdmissionController,
    calibrate_overbooking,
    estimate_delay_distribution,
    single_class_delays,
    voice_class,
)
from repro.experiments import format_table
from repro.topology import star_network
from repro.traffic import ClassRegistry, FlowSpec

ALPHA = 0.01          # 1% of each 100 Mbps link reserved for voice
TARGET_MISS = 1e-2    # tolerate 1 packet in 100 past the deadline


def converging_flows(per_branch):
    flows = []
    for branch in range(3):
        for i in range(per_branch):
            flows.append(
                (
                    FlowSpec(f"v{branch}_{i}", "voice",
                             f"leaf{branch}", "leaf3"),
                    [f"leaf{branch}", "hub", "leaf3"],
                )
            )
    return flows


def main() -> None:
    net = star_network(4)
    graph = LinkServerGraph(net)
    voice = voice_class()
    registry = ClassRegistry.two_class(voice)
    deterministic = int(ALPHA * 100e6 / voice.rate)
    print(f"deterministic certificate at alpha = {ALPHA:.0%}: "
          f"{deterministic} concurrent calls per link")

    # --- the gap: measured distribution vs worst-case bound ------------
    flows = converging_flows(deterministic // 3)
    dist = estimate_delay_distribution(
        graph, registry, flows, class_name="voice", packet_size=640,
        horizon=0.5, replications=3, seed=11,
    )
    routes = [[f"leaf{b}", "hub", "leaf3"] for b in range(3)]
    bound = single_class_delays(graph, routes, voice, ALPHA,
                                n_mode="per_server")
    print()
    print(
        format_table(
            ["quantity", "value"],
            [
                ["packets sampled", dist.count],
                ["worst-case analytic bound",
                 f"{bound.worst_route_delay * 1e3:.3f} ms"],
                ["measured p50", f"{dist.quantile(0.5) * 1e3:.3f} ms"],
                ["measured p99.9", f"{dist.quantile(0.999) * 1e3:.3f} ms"],
                ["measured max", f"{dist.max * 1e3:.3f} ms"],
                ["misses of 100 ms deadline",
                 dist.miss_probability(voice.deadline)],
            ],
            title="Poisson traffic vs the deterministic worst case",
        )
    )

    # --- convert the gap into capacity ---------------------------------
    def reference(factor):
        return converging_flows(max(1, int(deterministic * factor / 3)))

    result = calibrate_overbooking(
        graph, registry,
        class_name="voice",
        deadline=voice.deadline,
        reference_flows=reference,
        target_miss=TARGET_MISS,
        packet_size=640,
        factors=(1.0, 2.0, 4.0, 8.0),
        horizon=0.5,
        replications=2,
        seed=23,
    )
    print()
    rows = [
        [f"{f:.0f}x", f"{int(deterministic * f)} calls",
         f"{miss:.2e}", f"{upper:.2e}"]
        for f, miss, upper in result.evaluations
    ]
    print(
        format_table(
            ["factor", "calls/link", "measured miss", "95% upper bound"],
            rows,
            title=f"Overbooking calibration (miss budget {TARGET_MISS:g})",
        )
    )
    print()
    print(f"accepted factor: {result.factor:.0f}x -> "
          f"{int(deterministic * result.factor)} calls per link at the "
          f"{TARGET_MISS:g} miss budget")

    # --- the run-time side ----------------------------------------------
    # The factor scales the class's share: the admission test is the
    # same O(path) per-link counter compare, over more slots.
    ctrl = UtilizationAdmissionController(
        graph, registry, {"voice": ALPHA * result.factor},
        {("leaf0", "leaf3"): ["leaf0", "hub", "leaf3"]},
    )
    admitted = 0
    for i in range(int(deterministic * result.factor) + 50):
        if ctrl.admit(FlowSpec(i, "voice", "leaf0", "leaf3")).admitted:
            admitted += 1
    print(f"a controller at {result.factor:.0f}x the share now admits "
          f"{admitted} calls on the path (still O(path) per decision);")
    print("the guarantee is statistical — calibrated on the reference "
          "traffic — not the paper's hard bound.")

if __name__ == "__main__":
    main()
