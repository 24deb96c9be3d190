"""Chaos harness: fault replay against the live admission co-simulation."""

import pytest

from repro.admission import SlotShardController
from repro.config import configure
from repro.errors import FaultInjectionError
from repro.faults import degraded
from repro.faults import (
    BackoffPolicy,
    ChaosHarness,
    FaultEvent,
    FaultSchedule,
    configured_flow_schedule,
    default_link_failure_scenario,
    most_loaded_link,
)
from repro.topology import ring_network
from repro.traffic import ClassRegistry
from repro.traffic.generators import voice_class

PAIRS = [
    ("Seattle", "Miami"),
    ("Boston", "Phoenix"),
    ("Chicago", "Dallas"),
    ("NewYork", "LosAngeles"),
    ("Denver", "WashingtonDC"),
]

HORIZON = 2.0


@pytest.fixture(scope="module")
def cfg(mci, voice_registry):
    return configure(
        mci, voice_registry, {"voice": 0.35}, pairs=PAIRS,
        routing="shortest-path",
    )


@pytest.fixture(scope="module")
def flows(cfg):
    return configured_flow_schedule(
        cfg, "voice", arrival_rate=30.0, mean_holding=1.0,
        horizon=HORIZON, seed=7,
    )


@pytest.fixture(scope="module")
def link_faults(cfg):
    return default_link_failure_scenario(cfg, horizon=HORIZON)


class ShardChaosHarness(ChaosHarness):
    """The same co-simulation over the shard that ships: worker 0 of
    a 2-worker cluster, admitting against its half of every link."""

    def _make_controller(self):
        cfg = self.cfg
        return SlotShardController(
            cfg.graph, cfg.registry, cfg.alphas, cfg.routes,
            shard_index=0, shard_count=2,
        )


def run_chaos(cfg, flows, faults, harness=ChaosHarness, **kwargs):
    return harness(cfg).run(
        flows, faults, horizon=HORIZON, seed=7, **kwargs
    )


class TestScenarioHelpers:
    def test_flow_schedule_restricted_to_configured_pairs(self, cfg, flows):
        pairs = set(cfg.routes)
        assert flows
        assert all(
            e.flow.pair in pairs for e in flows if e.kind == "arrival"
        )

    def test_flow_schedule_deterministic(self, cfg, flows):
        again = configured_flow_schedule(
            cfg, "voice", arrival_rate=30.0, mean_holding=1.0,
            horizon=HORIZON, seed=7,
        )
        assert [
            (e.time, e.kind, e.flow_id) for e in again
        ] == [(e.time, e.kind, e.flow_id) for e in flows]

    @pytest.mark.parametrize("seed, count, digest", [
        (3, 94, "1f92694c9e81a38b417902b35834fb84b6125d9b"
                "8390027211bf88b2051b59a5"),
        (7, 104, "21ab08db53b2ab687d8f99c699fd63d7d5b3df6e"
                 "abbaed90d35e018cfa2447c9"),
    ])
    def test_flow_schedule_pinned(
        self, cfg, stream_digest, seed, count, digest
    ):
        """Taken at PR 19, when the harness had a Poisson loop of its
        own: same RNG call order, same flow ids."""
        events = configured_flow_schedule(
            cfg, "voice", arrival_rate=30.0, mean_holding=1.0,
            horizon=HORIZON, seed=seed,
        )
        assert len(events) == count
        assert stream_digest(events) == digest

    def test_every_arrival_has_departure(self, flows):
        arrivals = {e.flow_id for e in flows if e.kind == "arrival"}
        departures = {
            e.flow_id for e in flows if e.kind == "departure"
        }
        assert arrivals == departures

    def test_most_loaded_link_is_configured(self, cfg):
        u, v = most_loaded_link(cfg)
        assert cfg.network.has_link(u, v)
        assert any(
            (u, v) in zip(path, path[1:])
            or (v, u) in zip(path, path[1:])
            for path in cfg.routes.values()
        )


class TestLinkFailureTransition:
    """The acceptance scenario: link failure + repair on MCI."""

    @pytest.fixture(scope="class")
    def report(self, cfg, flows, link_faults):
        return run_chaos(cfg, flows, link_faults)

    def test_every_flow_accounted(self, report, flows):
        assert {e.flow_id for e in flows} <= set(report.flows)
        assert len(report.flows) == len(
            {e.flow_id for e in flows}
        )

    def test_zero_survivor_deadline_misses(self, report):
        assert report.simulated
        assert report.packets_injected > 0
        assert report.survivors_held()

    def test_transition_repaired_online(self, report):
        down = [t for t in report.transitions if t.kind == "link_down"]
        assert len(down) == 1
        record = down[0]
        assert record.repair_attempted and record.repair_success
        assert record.casualties  # the failed link actually carried flows
        # Every casualty of the transition was rerouted or shed.
        assert set(record.casualties) == set(
            record.rerouted
        ) | set(record.shed)
        assert record.time_to_resolve == pytest.approx(0.02)

    def test_casualties_flagged_and_rerouted(self, report):
        casualties = [
            a for a in report.flows.values() if a.casualty
        ]
        assert casualties
        assert any(a.reroutes > 0 for a in casualties)

    def test_deterministic_replay_bit_identical(
        self, cfg, flows, link_faults, report
    ):
        again = run_chaos(cfg, flows, link_faults)
        assert again.to_json() == report.to_json()

    def test_recorded_trace_runs_unchanged(
        self, cfg, flows, link_faults, report
    ):
        """What ``read_trace`` hands back is what the harness takes."""
        import io

        from repro.workload import read_trace, write_trace

        buffer = io.StringIO()
        write_trace(buffer, flows)
        buffer.seek(0)
        _meta, recorded = read_trace(buffer)
        assert recorded == flows
        again = run_chaos(cfg, recorded, link_faults)
        assert again.to_json() == report.to_json()

    def test_flow_level_only_run_skips_packets(
        self, cfg, flows, link_faults
    ):
        report = run_chaos(
            cfg, flows, link_faults, simulate_packets=False
        )
        assert not report.simulated
        assert report.packets_injected == 0

    def test_report_json_schema(self, report):
        data = report.to_dict()
        assert data["schema"] == "repro-transition-report/v1"
        assert data["controller"] == "utilization"
        total = sum(data["outcomes"].values())
        assert total == len(data["flows"])


class TestShardedController:
    def test_sharded_survives_link_failure(self, cfg, flows, link_faults):
        report = run_chaos(
            cfg, flows, link_faults, harness=ShardChaosHarness
        )
        assert report.survivors_held()
        assert {e.flow_id for e in flows} <= set(report.flows)

    def test_sharded_survives_controller_crash(self, cfg, flows):
        # A shard is a ledger like any other: it snapshots, so
        # controller crash/restore faults work on it unchanged.
        faults = FaultSchedule(
            [
                FaultEvent(0.5, "controller_crash"),
                FaultEvent(0.9, "controller_restore"),
            ]
        )
        report = run_chaos(
            cfg, flows, faults, harness=ShardChaosHarness
        )
        assert report.survivors_held()
        assert {e.flow_id for e in flows} <= set(report.flows)


class TestRouterDown:
    def test_endpoint_flows_shed_others_rerouted(self, cfg, flows):
        faults = FaultSchedule(
            [FaultEvent(0.6, "router_down", "Chicago")],
            network=cfg.network,
        )
        report = run_chaos(cfg, flows, faults)
        assert report.survivors_held()
        record = report.transitions[0]
        assert record.repair_attempted
        # (Chicago, Dallas) flows terminate at the dead router: any of
        # them established at fault time must be shed, never rerouted.
        for account in report.flows.values():
            if "Chicago" in account.pair and account.casualty:
                assert account.outcome == "shed"
                assert account.reroutes == 0


class TestControllerCrash:
    def test_crash_loses_arrivals_but_keeps_established(
        self, cfg, flows
    ):
        faults = FaultSchedule(
            [
                FaultEvent(0.5, "controller_crash"),
                FaultEvent(0.9, "controller_restore"),
            ]
        )
        report = run_chaos(cfg, flows, faults)
        outcomes = report.outcomes
        assert outcomes.get("lost_outage", 0) > 0
        # Established flows sail through the outage untouched: no
        # casualties, no drops, no misses.
        assert not any(a.casualty for a in report.flows.values())
        assert report.survivors_held()
        crash = [
            t for t in report.transitions
            if t.kind == "controller_crash"
        ][0]
        assert crash.time_to_resolve == pytest.approx(0.4)

    def test_admissions_resume_after_restore(self, cfg, flows):
        faults = FaultSchedule(
            [
                FaultEvent(0.2, "controller_crash"),
                FaultEvent(0.3, "controller_restore"),
            ]
        )
        report = run_chaos(cfg, flows, faults)
        admitted_after = [
            a
            for a in report.flows.values()
            if a.admitted_at is not None and a.admitted_at > 0.3
        ]
        assert admitted_after


class TestGracefulDegradation:
    """No safe repair exists: fall back to degraded admission."""

    @pytest.fixture(scope="class")
    def ring_cfg(self):
        # A skinny ring at alpha 0.5 verifies, but after losing r1--r2
        # no replacement route set verifies (the detour is too long), so
        # the harness must degrade rather than repair.
        net = ring_network(8, capacity=10e6)
        reg = ClassRegistry([voice_class()])
        pairs = [(f"r{i}", f"r{(i + 2) % 8}") for i in range(8)]
        return configure(
            net, reg, {"voice": 0.5}, pairs=pairs,
            routing="shortest-path",
        )

    @staticmethod
    def ring_run(ring_cfg):
        flows = configured_flow_schedule(
            ring_cfg, "voice", arrival_rate=40.0, mean_holding=1.0,
            horizon=HORIZON, seed=3,
        )
        faults = FaultSchedule(
            [
                FaultEvent(0.6, "link_down", ("r1", "r2")),
                FaultEvent(1.5, "link_up", ("r1", "r2")),
            ],
            network=ring_cfg.network,
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                degraded, "BACKOFF", BackoffPolicy(base=0.05, max_retries=3)
            )
            return ChaosHarness(ring_cfg).run(
                flows, faults, horizon=HORIZON, seed=3
            )

    @pytest.fixture(scope="class")
    def ring_report(self, ring_cfg):
        return self.ring_run(ring_cfg)

    def test_enters_degraded_mode(self, ring_report):
        down = [
            t for t in ring_report.transitions
            if t.kind == "link_down"
        ][0]
        assert down.repair_attempted and not down.repair_success
        assert down.repair_reason
        assert down.degraded_mode_entered

    def test_casualties_accounted(self, ring_report):
        down = [
            t for t in ring_report.transitions
            if t.kind == "link_down"
        ][0]
        # Every casualty ends rerouted or shed (possibly after retries).
        finished = set(down.rerouted) | set(down.shed)
        pending = {
            str(a.flow_id)
            for a in ring_report.flows.values()
            if str(a.flow_id) in set(down.casualties)
            and a.outcome == "active"
        }
        assert set(down.casualties) <= finished | pending | {
            str(a.flow_id)
            for a in ring_report.flows.values()
            if a.outcome in ("completed", "shed")
        }

    def test_deterministic(self, ring_cfg, ring_report):
        again = self.ring_run(ring_cfg)
        assert again.to_json() == ring_report.to_json()


class TestBackoffRetry:
    """Rejected re-admissions back off, retry, and eventually shed."""

    @pytest.fixture(scope="class")
    def hot_cfg(self):
        net = ring_network(8, capacity=10e6)
        reg = ClassRegistry([voice_class()])
        pairs = [(f"r{i}", f"r{(i + 2) % 8}") for i in range(8)]
        return configure(
            net, reg, {"voice": 0.5}, pairs=pairs,
            routing="shortest-path",
        )

    @staticmethod
    def hot_events(early_departure: float):
        # Ten flows crowd the (r1, r3) pair; after r1--r2 dies their
        # only detour is the counterclockwise ring, and at
        # ALPHA_FACTOR=0.05 its degraded ledger holds just 7 of them.
        from repro.traffic.flows import FlowSpec
        from repro.workload import TraceEvent

        events = []
        for i in range(10):
            flow = FlowSpec(f"hot{i}", "voice", "r1", "r3")
            events.append(
                TraceEvent.arrival(0.1 + 0.01 * i, flow)
            )
            events.append(
                TraceEvent.departure(
                    early_departure if i < 3 else 1.8, flow.flow_id
                )
            )
        return events

    @staticmethod
    def hot_faults(net):
        return FaultSchedule(
            [FaultEvent(0.6, "link_down", ("r1", "r2"))],
            network=net,
        )

    def test_retries_succeed_once_capacity_drains(self, hot_cfg, monkeypatch):
        monkeypatch.setattr(degraded, "ALPHA_FACTOR", 0.05)
        monkeypatch.setattr(
            degraded, "BACKOFF", BackoffPolicy(base=0.05, max_retries=5)
        )
        harness = ChaosHarness(hot_cfg)
        report = harness.run(
            self.hot_events(0.9),
            self.hot_faults(hot_cfg.network),
            horizon=2.0,
            seed=1,
        )
        down = report.transitions[0]
        assert not down.repair_success
        assert len(down.rerouted) == 7  # floor(0.025 * 10e6 / 32e3)
        assert down.retries > 0
        assert sum(a.retries for a in report.flows.values()) == down.retries
        # The three overflow flows got in after the 0.9 departures.
        assert report.outcomes == {"completed": 10}
        assert down.time_to_resolve is not None
        assert down.time_to_resolve > 0.02
        assert report.survivors_held()

    def test_exhausted_retries_shed_the_flow(self, hot_cfg, monkeypatch):
        monkeypatch.setattr(degraded, "ALPHA_FACTOR", 0.05)
        monkeypatch.setattr(
            degraded, "BACKOFF", BackoffPolicy(base=0.05, max_retries=2)
        )
        harness = ChaosHarness(hot_cfg)
        # Blockers hold until 1.8, so both retries (t=0.67, 0.77) fail.
        report = harness.run(
            self.hot_events(1.8),
            self.hot_faults(hot_cfg.network),
            horizon=2.0,
            seed=1,
        )
        down = report.transitions[0]
        assert report.outcomes.get("shed", 0) == 3
        assert len(down.shed) == 3
        assert set(down.casualties) == set(down.rerouted) | set(
            down.shed
        )


class TestDecodedCounterexample:
    def test_counterexample_trace_runs_unchanged(self, voice_registry):
        """``Counterexample.to_trace_events()`` (pinned routes on the
        verification chain) goes into the harness as it comes."""
        from repro.topology import line_network
        from repro.verify import VerifyBound, exhaustive_no_overcommit

        cx = exhaustive_no_overcommit(
            VerifyBound(flows=2, servers=2, max_capacity=1),
            admit_on_full=True,
        ).counterexample
        events = cx.to_trace_events()
        chain = configure(
            line_network(cx.servers + 1), voice_registry,
            {"voice": 0.3}, pairs=[("r0", f"r{cx.servers}")],
            routing="shortest-path",
        )
        report = ChaosHarness(chain).run(events, FaultSchedule([]))
        assert {e.flow_id for e in events} <= set(report.flows)
        assert report.outcomes == {"completed": len(cx.routes)}
        assert report.packets_injected > 0
        assert report.survivors_held()


class TestValidation:
    def test_empty_flow_schedule_rejected(self, cfg):
        faults = FaultSchedule(
            [FaultEvent(0.5, "link_down", ("Chicago", "Denver"))]
        )
        with pytest.raises(FaultInjectionError):
            ChaosHarness(cfg).run([], faults, horizon=1.0)

    def test_unknown_controller_rejected(self, cfg):
        # One slot ledger: there is no controller kind to choose.
        with pytest.raises(TypeError):
            ChaosHarness(cfg, controller="sharded")
