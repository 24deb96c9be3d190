"""Chaos coverage for the overload control plane.

The satellite scenario the PR pins: a ``link_down`` lands in the middle
of an adversarial burst *while the alpha governor is active* and the
preemptor is sacrificing elastic flows for hard-RT arrivals.  Hard-RT
survivors must hold their certified deadlines, every preemption must be
exactly accounted in the transition report, and the whole run must stay
bit-deterministic.
"""

import pytest

from repro.admission.ledger import granted_slots
from repro.config import configure
from repro.control import GovernorConfig, PreemptionPolicy, certify_ladder
from repro.faults import (
    ChaosHarness,
    FaultEvent,
    FaultSchedule,
    adversarial_flow_schedule,
)
from repro.topology import ring_network
from repro.traffic import ClassRegistry
from repro.traffic.flows import FlowSpec
from repro.traffic.generators import voice_class
from repro.workload import TraceEvent, merge_events

HORIZON = 2.0

#: Both ring directions, so the elastic background can drain the global
#: headroom (one direction alone caps at 50% occupancy).
PAIRS = [(f"r{i}", f"r{(i + 2) % 6}") for i in range(6)] + [
    (f"r{(i + 2) % 6}", f"r{i}") for i in range(6)
]

#: The failed link: crossed by the (r4, r0) / (r0, r4) background
#: flows but by neither hard-RT pair, so hard flows are never
#: fault casualties and the zero-eviction guarantee is cleanly
#: assertable.
FAILED_LINK = ("r4", "r5")
HARD_PAIRS = [("r0", "r2"), ("r2", "r4")]


@pytest.fixture(scope="module")
def cfg():
    # 3 voice slots per link server at alpha 0.1 — tight enough that a
    # couple dozen flows saturate the ring.
    net = ring_network(6, capacity=1e6)
    reg = ClassRegistry([voice_class()])
    return configure(
        net, reg, {"voice": 0.1}, pairs=PAIRS,
        routing="shortest-path",
    )


@pytest.fixture(scope="module")
def ladder(cfg):
    built = certify_ladder(
        cfg.network, list(cfg.routes.values()), cfg.registry,
        cfg.alphas, [0.05],
    )
    assert built.rungs == (0.05, 0.1)
    return built


def overload_schedule(cfg):
    """Deterministic mixed-priority overload: elastic fill + hard-RT
    arrivals + an adversarial burst, all with matched departures."""
    events = []
    # Elastic background: two round-robin passes over every pair.
    # The first pass alone books 24 of the ring's 36 slot-units, so
    # the governor's headroom signal crosses its low-water mark while
    # arrivals are still landing.
    k = 0
    for _round in range(2):
        for src, dst in PAIRS:
            flow = FlowSpec(
                f"bg{k}", "voice", src, dst, priority="elastic"
            )
            events.append(
                TraceEvent.arrival(0.05 + 0.01 * k, flow)
            )
            events.append(TraceEvent.departure(1.9, flow.flow_id))
            k += 1
    # Hard-RT arrivals after the fill: plain admission finds the ring
    # saturated, so each one must go through the preemptor.
    for i, (src, dst) in enumerate(HARD_PAIRS):
        flow = FlowSpec(
            f"hard{i}", "voice", src, dst, priority="hard_rt"
        )
        events.append(TraceEvent.arrival(0.4 + 0.02 * i, flow))
        events.append(TraceEvent.departure(1.95, flow.flow_id))
    # Adversarial burst (priority-less, hence evictable) across the
    # fault window.
    events.extend(
        adversarial_flow_schedule(
            cfg, "voice", horizon=HORIZON, seed=5
        )
    )
    return merge_events(events)


def make_harness(cfg, ladder):
    return ChaosHarness(
        cfg,
        ladder=ladder,
        # Low-water at 40% free: the elastic fill crosses it while the
        # run is still ramping, which is what makes the governor move
        # (the default 5% is sized for a big backbone, not this ring).
        governor_config=GovernorConfig(
            headroom_low=0.4, headroom_high=0.9
        ),
        preemption=PreemptionPolicy(),
    )


def run_overload(cfg, ladder):
    harness = make_harness(cfg, ladder)
    report = harness.run(
        overload_schedule(cfg),
        FaultSchedule(
            [
                FaultEvent(0.6, "link_down", FAILED_LINK),
                FaultEvent(1.4, "link_up", FAILED_LINK),
            ],
            network=cfg.network,
        ),
        horizon=HORIZON,
        seed=11,
    )
    return harness, report


@pytest.fixture(scope="module")
def overload(cfg, ladder):
    return run_overload(cfg, ladder)


class TestOverloadTransition:
    def test_scenario_exercises_everything(self, overload):
        harness, report = overload
        # The governor actually moved, the preemptor actually fired,
        # and the link actually failed — the scenario is not vacuous.
        assert report.governor_moves >= 1
        assert harness.governor.dec_count >= 1
        assert report.preempted_admits >= 1
        down = [
            t for t in report.transitions if t.kind == "link_down"
        ]
        assert len(down) == 1
        assert down[0].casualties

    def test_survivors_hold_certified_deadlines(self, overload):
        _harness, report = overload
        assert report.simulated
        assert report.packets_injected > 0
        assert report.survivors_held()

    def test_hard_rt_never_rejected_or_evicted(self, overload):
        harness, report = overload
        hard_ids = [f"hard{i}" for i in range(len(HARD_PAIRS))]
        for fid in hard_ids:
            account = report.flows[fid]
            assert account.outcome in ("completed", "active"), (
                f"{fid} ended {account.outcome!r}"
            )
            assert not account.casualty
            assert account.admitted_at is not None
        # Each hard arrival landed while the ring was saturated, so
        # they all went through the sacrifice path.
        assert report.preempted_admits == len(hard_ids)

    def test_preemptions_exactly_accounted(self, overload):
        harness, report = overload
        preempted = [
            a for a in report.flows.values()
            if a.outcome == "preempted"
        ]
        assert preempted
        assert report.outcomes["preempted"] == len(preempted)
        assert report.outcomes["preempted"] == harness.preemptor.preempted_total
        assert report.preempted_admits == harness.preemptor.preempted_admits
        # Victims are deliberately sacrificed: flagged casualties with
        # a recorded end time, never hard-RT, never still established.
        for account in preempted:
            assert account.casualty
            assert account.ended_at is not None
            assert not str(account.flow_id).startswith("hard")
            assert not harness.controller.is_established(
                account.flow_id
            )

    def test_every_applied_alpha_is_a_certified_rung(
        self, cfg, overload, ladder
    ):
        harness, _report = overload
        governor = harness.governor
        assert 0 <= governor.rung <= ladder.top
        assert governor.effective_alpha in ladder.rungs
        # The only limit the ledger can hold is a rung's certified
        # slots, the fault fallback's, or their min: never above the
        # rung the governor stands on.
        effective = harness.controller.ledger.slots("voice")
        rung = granted_slots(
            governor.effective_alpha,
            cfg.graph.capacities,
            cfg.registry.get("voice").rate,
        )
        assert all(e <= r for e, r in zip(effective, rung))

    def test_controller_invariants_after_the_storm(self, overload):
        harness, _report = overload
        assert harness.controller.verify_invariants() == []

    def test_every_flow_accounted(self, cfg, overload):
        _harness, report = overload
        schedule = overload_schedule(cfg)
        assert {e.flow_id for e in schedule} <= set(report.flows)

    def test_bit_identical_replay(self, cfg, ladder, overload):
        _harness, report = overload
        _again_harness, again = run_overload(cfg, ladder)
        assert again.to_json() == report.to_json()


class TestGovernorWithoutFaults:
    """The governor alone (no topology fault) also steps and recovers."""

    def test_dec_then_inc_over_a_burst(self, cfg, ladder):
        events = []
        k = 0
        for _round in range(2):
            for src, dst in PAIRS:
                flow = FlowSpec(
                    f"bg{k}", "voice", src, dst, priority="elastic"
                )
                events.append(
                    TraceEvent.arrival(0.05 + 0.01 * k, flow)
                )
                # Early mass departure, then trailing arrivals give
                # the governor drained samples to climb back on.
                events.append(TraceEvent.departure(0.6, flow.flow_id))
                k += 1
        for i in range(8):
            flow = FlowSpec(f"late{i}", "voice", "r0", "r2")
            events.append(TraceEvent.arrival(0.8 + 0.05 * i, flow))
            events.append(TraceEvent.departure(1.8, flow.flow_id))
        events = merge_events(events)
        harness = make_harness(cfg, ladder)
        # A fault schedule is required by the harness; use a no-op
        # window on a link no schedule flow crosses after t=0.6.
        report = harness.run(
            events,
            FaultSchedule(
                [
                    FaultEvent(1.85, "link_down", ("r3", "r4")),
                    FaultEvent(1.9, "link_up", ("r3", "r4")),
                ],
                network=cfg.network,
            ),
            horizon=HORIZON,
            seed=2,
            simulate_packets=False,
        )
        governor = harness.governor
        assert governor.dec_count >= 1
        assert governor.inc_count >= 1
        assert governor.at_top  # fully recovered after the burst
        assert not harness.controller.ledger.limited
        assert report.governor_moves == (
            governor.dec_count + governor.inc_count
        )
