"""Schedule replay and its statistics."""

import numpy as np
import pytest

from repro.admission import (
    UtilizationAdmissionController,
    replay_schedule,
)
from repro.routing import shortest_path_routes
from repro.traffic import FlowSpec
from repro.workload import TraceEvent, poisson_flow_schedule


def _events(times_kinds_flows):
    return [
        TraceEvent.arrival(t, f) if k == "arrival"
        else TraceEvent.departure(t, f.flow_id)
        for t, k, f in times_kinds_flows
    ]


@pytest.fixture()
def controller(line4, line4_graph, voice_registry):
    pairs = [(u, v) for u in line4.routers() for v in line4.routers()
             if u != v]
    routes = shortest_path_routes(line4, pairs)
    return UtilizationAdmissionController(
        line4_graph, voice_registry, {"voice": 0.001008}, routes
    )


def _flow(i, src="r0", dst="r3"):
    return FlowSpec(i, "voice", src, dst)


def test_replay_counts(controller):
    flows = [_flow(i) for i in range(5)]
    events = _events(
        [(float(i), "arrival", f) for i, f in enumerate(flows)]
        + [(10.0 + i, "departure", f) for i, f in enumerate(flows)]
    )
    stats = replay_schedule(controller, events)
    # 3 slots: 3 admitted, 2 rejected.
    assert stats.attempts == 5
    assert stats.admitted == 3
    assert stats.rejected == 2
    assert stats.blocking_probability == pytest.approx(0.4)
    assert stats.peak_population == 3
    # After all departures the network is empty again.
    assert controller.num_established == 0


def test_departure_of_rejected_flow_ignored(controller):
    flows = [_flow(i) for i in range(4)]
    events = _events(
        [(float(i), "arrival", f) for i, f in enumerate(flows)]
        + [(9.0, "departure", flows[3])]  # flow 3 was rejected
    )
    stats = replay_schedule(controller, events)  # must not raise
    assert stats.admitted == 3


def test_population_trajectory_monotone_under_arrivals(controller):
    flows = [_flow(i) for i in range(3)]
    events = _events([(float(i), "arrival", f) for i, f in enumerate(flows)])
    stats = replay_schedule(controller, events)
    counts = [c for _, c in stats.population]
    assert counts == [1, 2, 3]


def test_decision_latency_stats(controller):
    events = _events([(0.0, "arrival", _flow(0))])
    stats = replay_schedule(controller, events)
    assert stats.decision_seconds.shape == (1,)
    assert stats.mean_decision_seconds >= 0
    assert stats.p99_decision_seconds >= 0


def test_empty_schedule(controller):
    stats = replay_schedule(controller, [])
    assert stats.attempts == 0
    assert np.isnan(stats.blocking_probability)
    assert np.isnan(stats.mean_decision_seconds)


def test_max_events_budget(controller):
    flows = [_flow(i) for i in range(5)]
    events = _events([(float(i), "arrival", f) for i, f in enumerate(flows)])
    stats = replay_schedule(controller, events[:2])
    assert stats.attempts == 2


def test_replay_poisson_end_to_end(mci, mci_graph, voice_registry):
    """Full dynamic scenario on the MCI network."""
    pairs = [(u, v) for u in mci.routers() for v in mci.routers() if u != v]
    routes = shortest_path_routes(mci, pairs)
    ctrl = UtilizationAdmissionController(
        mci_graph, voice_registry, {"voice": 0.25}, routes
    )
    schedule = poisson_flow_schedule(
        mci, "voice", arrival_rate=20.0, mean_holding=5.0, horizon=10.0,
        seed=42,
    )
    stats = replay_schedule(ctrl, schedule)
    assert stats.attempts > 50
    # alpha=0.25 of 100 Mbps is ~780 slots/link: nothing should block.
    assert stats.rejected == 0
    assert stats.peak_population > 0


def test_lifetimes_record_each_admitted_interval(controller):
    """One lifetime per admitted interval, on the committed route: an
    id admitted twice has two, a rejected attempt has none."""
    first, again = _flow("f"), _flow("f")
    events = _events([
        (0.0, "arrival", first),
        (0.5, "departure", first),
        (1.5, "arrival", again),
    ])
    stats = replay_schedule(controller, events)
    assert [
        (life.flow.flow_id, life.route, life.start, life.stop, life.index)
        for life in stats.lifetimes
    ] == [
        ("f", ["r0", "r1", "r2", "r3"], 0.0, 0.5, 0),
        ("f", ["r0", "r1", "r2", "r3"], 1.5, None, 2),
    ]
    assert stats.admitted_ids == ["f", "f"]


def test_replay_takes_a_recorded_trace(controller):
    """``read_trace`` output goes in unchanged."""
    import io

    from repro.workload import read_trace, write_trace

    flows = [_flow(f"w{i}") for i in range(5)]
    events = _events(
        [(float(i), "arrival", f) for i, f in enumerate(flows)]
        + [(10.0 + i, "departure", f) for i, f in enumerate(flows)]
    )
    buffer = io.StringIO()
    write_trace(buffer, events)
    buffer.seek(0)
    _meta, recorded = read_trace(buffer)
    stats = replay_schedule(controller, recorded)
    assert (stats.attempts, stats.admitted, stats.rejected) == (5, 3, 2)
    assert stats.admitted_ids == ["w0", "w1", "w2"]
    assert controller.num_established == 0


def test_replay_takes_a_decoded_counterexample():
    """``Counterexample.to_trace_events()`` goes in unchanged, pinned
    routes and all."""
    from repro.verify import (
        VerifyBound,
        build_chain_controller,
        exhaustive_no_overcommit,
        replay_no_overcommit,
    )

    cx = exhaustive_no_overcommit(
        VerifyBound(flows=2, servers=2, max_capacity=1),
        admit_on_full=True,
    ).counterexample
    controller = build_chain_controller(cx.servers, cx.capacities)
    stats = replay_schedule(controller, cx.to_trace_events())
    verdicts = replay_no_overcommit(cx)["controller_verdicts"]
    assert stats.attempts == len(cx.routes)
    assert stats.admitted == sum(verdicts)
    assert all(
        tuple(life.route) == life.flow.route for life in stats.lifetimes
    )
    assert controller.num_established == 0
