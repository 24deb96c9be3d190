"""Ext-J: dynamic end-to-end guarantee under churn (co-simulation).

Poisson call arrivals/departures replayed through the utilization-based
controller while the admitted population is simulated at packet level:
the verified configuration must yield **zero** deadline misses, with both
well-behaved and adversarial sources.
"""

import pytest

from repro.admission import UtilizationAdmissionController
from repro.experiments import format_table
from repro.simulation import co_simulate
from repro.workload import poisson_flow_schedule

ALPHA = 0.35  # verified for SP routes on MCI (see quickstart)


@pytest.fixture()
def controller(scenario, sp_routes):
    return UtilizationAdmissionController(
        scenario.graph, scenario.registry, {"voice": ALPHA}, sp_routes
    )


@pytest.mark.parametrize("pattern", ["poisson", "greedy"])
def test_bench_cosim_guarantee(benchmark, scenario, controller, pattern,
                               capsys):
    schedule = poisson_flow_schedule(
        scenario.network, "voice", arrival_rate=40.0, mean_holding=3.0,
        horizon=5.0, seed=31,
    )

    def run():
        # A fresh controller per round (state is consumed by the replay).
        ctrl = UtilizationAdmissionController(
            scenario.graph, scenario.registry, {"voice": ALPHA},
            controller.route_map,
        )
        return co_simulate(
            scenario.graph,
            scenario.registry,
            ctrl,
            schedule,
            packet_size=640,
            pattern_kind=pattern,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(
            format_table(
                ["metric", "value"],
                [
                    ["source pattern", pattern],
                    ["admission attempts", result.admission.attempts],
                    ["flows simulated", result.flows_simulated],
                    ["packets delivered",
                     result.packets.packets_delivered],
                    ["worst e2e delay",
                     f"{result.packets.max_e2e('voice') * 1e3:.2f} ms"],
                    ["deadline misses",
                     result.deadline_misses["voice"]],
                ],
                title=f"Ext-J: co-simulation under churn ({pattern})",
            )
        )
    assert result.packets.conserved
    assert result.guarantees_held
    assert result.flows_simulated > 50
    # What EXPERIMENTS.md prints: every arrival admitted and simulated.
    assert result.admission.attempts == result.flows_simulated == 204
