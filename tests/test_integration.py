"""End-to-end integration: configuration -> admission -> simulation.

This is the full life cycle the paper describes: configure off-line
(bounds, route selection, verification), run utilization-based admission
at "run time", then push packets through the simulator and check that the
admitted traffic meets its deadline with room to spare.
"""

import numpy as np
import pytest

import repro
from repro import (
    PacketPattern,
    SafeRouteSelector,
    Simulator,
    UtilizationAdmissionController,
    single_class_delays,
    utilization_bounds,
    verify_safe_assignment,
)
from repro.traffic import FlowSpec


def test_public_api_surface():
    """Everything advertised in __all__ resolves."""
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_full_lifecycle(mci, mci_graph, voice, voice_registry):
    # --- configuration time -------------------------------------------
    pairs = [
        ("Seattle", "Boston"),
        ("Miami", "Seattle"),
        ("LosAngeles", "NewYork"),
        ("Houston", "Detroit"),
    ]
    bounds = utilization_bounds(6, 4, voice.burst, voice.rate, voice.deadline)
    alpha = bounds.lower  # certified safe for any selection within L

    selection = SafeRouteSelector(mci, voice).select(pairs, alpha)
    assert selection.success

    verification = verify_safe_assignment(
        mci, list(selection.routes.values()), voice_registry,
        {"voice": alpha},
    )
    assert verification.success

    # --- run time: admission ------------------------------------------
    ctrl = UtilizationAdmissionController(
        mci_graph, voice_registry, {"voice": alpha}, selection.routes
    )
    flows = []
    for i, pair in enumerate(pairs * 5):  # 20 flows
        flow = FlowSpec(f"f{i}", "voice", pair[0], pair[1])
        decision = ctrl.admit(flow)
        assert decision.admitted  # far below the utilization limit
        flows.append(flow)

    # --- run time: packets --------------------------------------------
    sim = Simulator(mci_graph, voice_registry)
    for flow in flows:
        sim.add_flow(
            flow,
            selection.routes[flow.pair],
            PacketPattern("greedy", packet_size=640, seed=hash(flow.flow_id) % 97),
        )
    report = sim.run(horizon=1.0)
    assert report.conserved
    # Every admitted packet is comfortably within the verified deadline.
    assert report.max_e2e("voice") < voice.deadline
    # And within the analytic bound that verification computed (+SF).
    check = single_class_delays(
        mci_graph, list(selection.routes.values()), voice, alpha
    )
    hops = max(len(r) - 1 for r in selection.routes.values())
    allowance = (hops + 1) * 640 / 100e6
    assert report.max_e2e("voice") <= check.worst_route_delay + allowance


def test_admission_saturation_matches_slots(mci, mci_graph, voice,
                                            voice_registry):
    """Admission stops exactly at the configured utilization."""
    pair = ("Boston", "NewYork")
    routes = {pair: ["Boston", "NewYork"]}
    alpha = 0.001024  # floor(alpha*C/rho) = 3 slots
    ctrl = UtilizationAdmissionController(
        mci_graph, voice_registry, {"voice": alpha}, routes
    )
    slots = int(alpha * 100e6 / voice.rate)
    for i in range(slots):
        assert ctrl.admit(FlowSpec(i, "voice", *pair)).admitted
    assert not ctrl.admit(FlowSpec("extra", "voice", *pair)).admitted
    util = ctrl.ledger.used_view("voice") * voice.rate / 100e6
    assert np.all(util <= alpha)


def test_version():
    assert repro.__version__ == "1.0.0"
