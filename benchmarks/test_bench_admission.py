"""Ext-E: admission-control scalability — UBAC vs flow-aware.

The paper's core argument: utilization-based admission is O(path length)
and independent of how many flows are established, while IntServ-style
flow-aware admission recomputes a network-wide analysis whose cost grows
with the population.  The bench measures the mean admission decision at
a small and a large standing population for both controllers.
"""

import time

from repro.admission import (
    FlowAwareAdmissionController,
    UtilizationAdmissionController,
)
from repro.traffic import FlowSpec


def _populate(controller, scenario, count):
    pairs = scenario.pairs
    for i in range(count):
        pair = pairs[i % len(pairs)]
        decision = controller.admit(
            FlowSpec(f"bg{i}", "voice", pair[0], pair[1])
        )
        assert decision.admitted
    return controller


def _probe_flow(scenario):
    return FlowSpec("probe", "voice", "Seattle", "Miami")


def test_bench_scalability_contrast(benchmark, scenario, sp_routes, capsys):
    """Direct contrast: decision latency growth from small to large
    populations for both architectures (measured inline, printed)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    def mean_decision(ctrl, population, probes):
        _populate(ctrl, scenario, population)
        flow = _probe_flow(scenario)
        start = time.perf_counter()
        for _ in range(probes):
            ctrl.admit(flow)
            ctrl.release(flow.flow_id)
        return (time.perf_counter() - start) / probes

    ubac_small = mean_decision(
        UtilizationAdmissionController(
            scenario.graph, scenario.registry, {"voice": 0.45}, sp_routes
        ),
        50,
        200,
    )
    ubac_large = mean_decision(
        UtilizationAdmissionController(
            scenario.graph, scenario.registry, {"voice": 0.45}, sp_routes
        ),
        5000,
        200,
    )
    fa_small = mean_decision(
        FlowAwareAdmissionController(
            scenario.graph, scenario.registry, sp_routes
        ),
        10,
        3,
    )
    fa_large = mean_decision(
        FlowAwareAdmissionController(
            scenario.graph, scenario.registry, sp_routes
        ),
        40,
        3,
    )
    with capsys.disabled():
        print()
        print("decision latency (mean):")
        print(f"  UBAC        pop=  50: {ubac_small * 1e6:8.1f} us")
        print(f"  UBAC        pop=5000: {ubac_large * 1e6:8.1f} us")
        print(f"  flow-aware  pop=  10: {fa_small * 1e3:8.2f} ms")
        print(f"  flow-aware  pop=  40: {fa_large * 1e3:8.2f} ms")
        print(
            f"  flow-aware growth: {fa_large / fa_small:.1f}x; "
            f"UBAC growth: {ubac_large / max(ubac_small, 1e-12):.1f}x"
        )
    # The qualitative claim: flow-aware cost grows markedly with the
    # population; UBAC stays within noise (allow generous slack).
    assert fa_large > 2 * fa_small
    assert ubac_large < 10 * ubac_small
    # And the architectures differ by orders of magnitude at scale.
    assert fa_large > 50 * ubac_large
