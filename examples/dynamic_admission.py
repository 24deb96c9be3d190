#!/usr/bin/env python3
"""Dynamic admission control: UBAC vs the IntServ-style baseline.

Replays the same Poisson call-arrival schedule through both run-time
architectures the paper contrasts:

* **utilization-based** (this paper): O(path) slot test per decision;
* **flow-aware** (IntServ-style): network-wide worst-case recomputation
  over all established flows per decision.

Reports acceptance, decision latency, and how latency scales with the
standing population.

Run:  python examples/dynamic_admission.py
"""

from repro import (
    FlowAwareAdmissionController,
    LinkServerGraph,
    UtilizationAdmissionController,
    mci_backbone,
    replay_schedule,
    shortest_path_routes,
    voice_class,
)
from repro.experiments import format_table
from repro.traffic import ClassRegistry, all_ordered_pairs
from repro.workload import poisson_flow_schedule


def main() -> None:
    network = mci_backbone()
    graph = LinkServerGraph(network)
    voice = voice_class()
    registry = ClassRegistry.two_class(voice)
    pairs = all_ordered_pairs(network)
    routes = shortest_path_routes(network, pairs)
    alpha = 0.35  # verified safe for SP routes (see quickstart.py)

    # A shared workload: ~40 calls/s for 20 s, 10 s mean holding time.
    schedule = poisson_flow_schedule(
        network, "voice", arrival_rate=40.0, mean_holding=10.0,
        horizon=20.0, seed=7,
    )
    arrivals = sum(1 for e in schedule if e.kind == "arrival")
    print(f"workload: {arrivals} call arrivals over 20 s "
          f"(Poisson, exp holding)")

    ubac = UtilizationAdmissionController(
        graph, registry, {"voice": alpha}, routes
    )
    ubac_stats = replay_schedule(ubac, schedule)

    # The flow-aware baseline recomputes the whole analysis per decision;
    # replay a shorter prefix to keep the demo brisk.
    flow_aware = FlowAwareAdmissionController(graph, registry, routes)
    fa_events = [e for e in schedule if e.time < 4.0]
    fa_stats = replay_schedule(flow_aware, fa_events)

    print()
    print(
        format_table(
            ["metric", "utilization-based", "flow-aware (IntServ-like)"],
            [
                ["admission attempts", ubac_stats.attempts,
                 fa_stats.attempts],
                ["blocking probability",
                 f"{ubac_stats.blocking_probability:.3f}",
                 f"{fa_stats.blocking_probability:.3f}"],
                ["peak concurrent calls", ubac_stats.peak_population,
                 fa_stats.peak_population],
                ["mean decision time",
                 f"{ubac_stats.mean_decision_seconds * 1e6:.1f} us",
                 f"{fa_stats.mean_decision_seconds * 1e3:.1f} ms"],
                ["p99 decision time",
                 f"{ubac_stats.p99_decision_seconds * 1e6:.1f} us",
                 f"{fa_stats.p99_decision_seconds * 1e3:.1f} ms"],
            ],
            title="Run-time admission control comparison",
        )
    )
    print()
    ratio = fa_stats.mean_decision_seconds / max(
        ubac_stats.mean_decision_seconds, 1e-12
    )
    print(f"flow-aware decisions cost ~{ratio:,.0f}x more per call here, "
          "and the gap widens with the population —")
    print("that cost gap is the paper's case for pushing all hard work "
          "to configuration time.")


if __name__ == "__main__":
    main()
