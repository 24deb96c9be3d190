"""Unit coverage of the adaptive overload control plane.

Three pieces: the pre-certified :class:`AlphaLadder` (its base passes
the Figure 2 fixed-point verification, and every rung below it must
re-pass it on its own — the deadline-safety anchor), the
:class:`AlphaGovernor` INC/HOLD/DEC state machine, and the
:class:`Preemptor` sacrifice policy against a live controller.
"""

import inspect

import pytest

from repro.admission import UtilizationAdmissionController
from repro.analysis.verification import verify_assignment
from repro.config import configure, critical_alpha
from repro.control import ladder as ladder_module
from repro.control import preempt
from repro.control import (
    AlphaGovernor,
    AlphaLadder,
    GovernorConfig,
    GovernorSample,
    Preemptor,
    certify_ladder,
)
from repro.errors import ConfigurationError, UnknownLinkError
from repro.routing.shortest import shortest_path_routes
from repro.topology import (
    LinkServerGraph,
    mci_backbone,
    nsfnet_backbone,
    ring_network,
)
from repro.traffic import ClassRegistry, all_ordered_pairs
from repro.traffic.flows import FlowSpec
from repro.traffic.generators import voice_class

RING_PAIRS = [(f"r{i}", f"r{(i + 2) % 6}") for i in range(6)]


def ring_cfg(alpha=0.1):
    """Skinny ring: 3 voice slots per link server at alpha 0.1."""
    net = ring_network(6, capacity=1e6)
    reg = ClassRegistry([voice_class()])
    return configure(
        net, reg, {"voice": alpha}, pairs=RING_PAIRS,
        routing="shortest-path",
    )


def make_controller(cfg):
    return UtilizationAdmissionController(
        cfg.graph, cfg.registry, cfg.alphas, cfg.routes
    )


# --------------------------------------------------------------------- #
# AlphaLadder
# --------------------------------------------------------------------- #


class TestAlphaLadder:
    def test_accessors(self):
        ladder = AlphaLadder((0.1, 0.2, 0.4), {"voice": 0.4, "video": 0.2})
        assert len(ladder) == 3
        assert ladder.base == 0.4
        assert ladder.top == 2
        # The class at the base takes each rung exactly; the others
        # keep their share of it.
        assert ladder.class_alphas(0) == {"voice": 0.1, "video": 0.05}
        assert ladder.class_alphas(2) == {"voice": 0.4, "video": 0.2}

    def test_rungs_must_strictly_increase(self):
        with pytest.raises(ConfigurationError):
            AlphaLadder((0.2, 0.1), {"voice": 0.1})
        with pytest.raises(ConfigurationError):
            AlphaLadder((0.2, 0.2), {"voice": 0.2})

    def test_rungs_must_be_positive_and_nonempty(self):
        with pytest.raises(ConfigurationError):
            AlphaLadder((), {"voice": 0.2})
        with pytest.raises(ConfigurationError):
            AlphaLadder((-0.1, 0.2), {"voice": 0.2})

    def test_top_rung_is_the_largest_base_alpha(self):
        with pytest.raises(ConfigurationError, match="not the largest"):
            AlphaLadder((0.1, 0.2), {"voice": 0.3})


class TestCertifyLadder:
    def test_candidates_partitioned_and_every_rung_certified(self):
        cfg = ring_cfg(alpha=0.3)
        ladder = certify_ladder(
            cfg.network,
            list(cfg.routes.values()),
            cfg.registry,
            cfg.alphas,
            [0.05, 0.1, 0.9, 0.0, -0.5, 0.3],
        )
        assert ladder.rungs == (0.05, 0.1, 0.3)
        assert ladder.base == 0.3
        assert set(ladder.rejected) == {-0.5, 0.0, 0.9}
        # The acceptance criterion: every reachable operating point
        # re-passes the same fixed-point verification the configuration
        # pipeline ran — no uncertified alpha is ever applicable.
        routes = [list(r) for r in cfg.routes.values()]
        for rung in ladder.rungs:
            report = verify_assignment(
                cfg.network, routes, cfg.registry, {"voice": rung}
            )
            assert report.success, f"rung {rung} lost its certificate"

    @staticmethod
    def refuses_a_failing_base(certify):
        # alpha 0.9 misses the voice deadline on this ring (see
        # TestCertifyLadder above: 0.9 lands in `rejected` as a
        # candidate) — as a *base* it must abort construction instead.
        cfg = ring_cfg(alpha=0.3)
        with pytest.raises(ConfigurationError):
            certify(
                cfg.network,
                list(cfg.routes.values()),
                cfg.registry,
                {"voice": 0.9},
                [0.1],
            )

    def test_failing_base_refuses_to_build(self):
        self.refuses_a_failing_base(certify_ladder)

    def test_a_ladder_that_verifies_its_lowest_candidate_is_caught(self):
        """Planted: the one solve spent on the lowest candidate, not on
        the base.  Nothing then stands behind the rungs above it."""
        source = inspect.getsource(certify_ladder)
        line = "_scaled(base_alphas, base),"
        assert source.count(line) == 1
        namespace = dict(vars(ladder_module))
        exec(source.replace(line, "_scaled(base_alphas, min(map(float, candidates))),"), namespace)
        with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
            self.refuses_a_failing_base(namespace["certify_ladder"])

    @pytest.mark.parametrize(
        "topology", [mci_backbone, nsfnet_backbone], ids=["mci", "nsfnet"]
    )
    def test_every_admitted_rung_verifies_on_its_own(self, topology):
        """The base's certificate admits each rung below it; each one,
        verified on its own, must agree, for bases up to the largest
        alpha these routes certify."""
        network = topology()
        graph = LinkServerGraph(network)
        paths = list(shortest_path_routes(network, all_ordered_pairs(network)).values())
        voice = voice_class()
        registry = ClassRegistry.two_class(voice)
        top = critical_alpha(graph, paths, voice)
        for base in (top / 4, top / 2, 3 * top / 4, top):
            ladder = certify_ladder(
                graph, paths, registry, {"voice": base},
                [base * k / 10 for k in range(1, 10)],
            )
            assert len(ladder) == 10 and ladder.rejected == ()
            for rung in range(len(ladder)):
                report = verify_assignment(
                    graph, paths, registry, ladder.class_alphas(rung)
                )
                assert report.success, (base, ladder.rungs[rung])

    def test_failing_base_keeps_its_message(self):
        cfg = ring_cfg(alpha=0.3)
        with pytest.raises(
            ConfigurationError, match="base alpha 0.9 fails verification"
        ):
            certify_ladder(
                cfg.network, list(cfg.routes.values()), cfg.registry,
                {"voice": 0.9}, [0.1, 0.5],
            )

    def test_unknown_router_propagates(self, mci, voice_registry):
        # Not "base alpha 0.3 fails verification": the input is wrong.
        with pytest.raises(UnknownLinkError, match="Denvr"):
            certify_ladder(
                mci, [["Seattle", "Denvr"]], voice_registry,
                {"voice": 0.3}, [0.15],
            )

    def test_missing_class_alpha_propagates(self, mci, voice_registry):
        with pytest.raises(
            ConfigurationError, match="missing alpha for class 'voice'"
        ):
            certify_ladder(
                mci, [["Seattle", "Denver"]], voice_registry,
                {"video": 0.3}, [0.15],
            )

    def test_empty_base_rejected(self):
        cfg = ring_cfg(alpha=0.3)
        with pytest.raises(ConfigurationError):
            certify_ladder(
                cfg.network, list(cfg.routes.values()), cfg.registry,
                {}, [0.1],
            )


# --------------------------------------------------------------------- #
# AlphaGovernor
# --------------------------------------------------------------------- #

LADDER = AlphaLadder((0.1, 0.2, 0.4), {"voice": 0.4})
PRESSED = GovernorSample(queue_delay=0.0, headroom=0.0)
DRAINED = GovernorSample(queue_delay=0.0, headroom=1.0)


class TestAlphaGovernor:
    def test_starts_at_top(self):
        governor = AlphaGovernor(LADDER)
        assert governor.at_top
        assert governor.effective_alpha == LADDER.base
        assert governor.alphas == {"voice": 0.4}

    def test_overuse_streak_triggers_dec(self):
        governor = AlphaGovernor(LADDER)
        # One pressed sample is not enough (overuse_samples=2)...
        assert governor.observe(PRESSED) is None
        assert governor.signal == "normal"
        # ...two consecutive are.
        alphas = governor.observe(PRESSED)
        assert alphas == {"voice": 0.2}
        assert governor.rung == 1
        assert governor.signal == "overuse"
        assert governor.action == "dec"
        assert governor.dec_count == 1

    def test_hold_hysteresis_rate_limits_moves(self):
        governor = AlphaGovernor(LADDER)
        moves = []
        for _ in range(10):
            if governor.observe(PRESSED) is not None:
                moves.append(governor.samples)
        # First move at sample 2 (streak), then hold_samples=4 quiet
        # samples before the next: 2, then 2+4=6 at the earliest.
        assert moves[0] == 2
        assert moves[1] - moves[0] >= GovernorConfig().hold_samples
        # Pinned to the bottom rung once the ladder is exhausted.
        assert governor.rung == 0
        assert governor.effective_alpha == 0.1

    def test_underuse_streak_climbs_back(self):
        governor = AlphaGovernor(LADDER)
        governor.observe(PRESSED)
        governor.observe(PRESSED)
        assert governor.rung == 1
        moves = [governor.observe(DRAINED) for _ in range(4)]
        assert moves[:3] == [None, None, None]
        assert moves[3] == {"voice": 0.4}  # underuse_samples=4
        assert governor.at_top
        assert governor.inc_count == 1

    def test_never_leaves_ladder_bounds(self):
        governor = AlphaGovernor(LADDER)
        for _ in range(50):
            governor.observe(PRESSED)
        assert governor.rung == 0
        for _ in range(50):
            governor.observe(DRAINED)
        assert governor.rung == LADDER.top
        for _ in range(50):
            governor.observe(DRAINED)
        assert governor.rung == LADDER.top

    def test_delay_gradient_detector(self):
        # Rising above-threshold delay presses even with full headroom.
        governor = AlphaGovernor(LADDER)
        assert governor.observe(
            GovernorSample(queue_delay=0.010, headroom=1.0)
        ) is None
        alphas = governor.observe(
            GovernorSample(queue_delay=0.012, headroom=1.0)
        )
        assert alphas == {"voice": 0.2}
        # A *falling* above-threshold delay is not overuse (and full
        # headroom is not underuse while the queue sits above
        # threshold): the governor holds.
        held = governor.observe(
            GovernorSample(queue_delay=0.008, headroom=1.0)
        )
        assert held is None
        assert governor.signal == "normal"

    def test_snapshot_shape(self):
        governor = AlphaGovernor(LADDER)
        governor.observe(PRESSED)
        snap = governor.snapshot()
        assert snap == {
            "rung": 2,
            "rungs": 3,
            "effective_alpha": 0.4,
            "base_alpha": 0.4,
            "action": "hold",
            "signal": "normal",
            "samples": 1,
            "inc": 0,
            "dec": 0,
            "hold": 1,
        }

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            GovernorConfig(delay_threshold=-1.0)
        with pytest.raises(ConfigurationError):
            GovernorConfig(headroom_low=0.5, headroom_high=0.1)
        with pytest.raises(ConfigurationError):
            GovernorConfig(hold_samples=0)


# --------------------------------------------------------------------- #
# Preemptor
# --------------------------------------------------------------------- #


def fill(controller, pair, n, priority, prefix):
    """Admit ``n`` flows of ``priority`` on ``pair``; all must land."""
    src, dst = pair
    flows = []
    for i in range(n):
        flow = FlowSpec(f"{prefix}{i}", "voice", src, dst, priority=priority)
        decision = controller.admit(flow)
        assert decision.admitted, decision.reason
        flows.append(flow)
    return flows


class TestPreemptor:
    def test_evicts_lowest_priority_and_admits(self):
        cfg = ring_cfg()
        controller = make_controller(cfg)
        fill(controller, ("r0", "r2"), 3, "elastic", "e")
        hard = FlowSpec("h0", "voice", "r0", "r2", priority="hard_rt")
        assert not controller.admit(hard).admitted

        preemptor = Preemptor(controller)
        outcome = preemptor.try_admit(hard)
        assert outcome.admitted
        assert len(outcome.evicted) == 1
        assert outcome.evicted[0] == "e0"  # deterministic tie-break
        assert controller.is_established("h0")
        assert not controller.is_established("e0")
        assert controller.verify_invariants() == []
        assert preemptor.preempted_total == 1
        assert preemptor.preempted_admits == 1

    def test_never_evicts_protected_priority(self):
        cfg = ring_cfg()
        controller = make_controller(cfg)
        fill(controller, ("r0", "r2"), 3, "hard_rt", "h")
        before = {f.flow_id for f in controller.established_flows}
        used = controller.ledger.used_view("voice").copy()

        preemptor = Preemptor(controller)
        outcome = preemptor.try_admit(
            FlowSpec("h9", "voice", "r0", "r2", priority="hard_rt")
        )
        assert not outcome.admitted
        assert outcome.evicted == ()
        assert outcome.reason == "no lower-priority flows cover the deficit"
        # Zero side effects on a failed plan.
        assert {f.flow_id for f in controller.established_flows} == before
        assert (controller.ledger.used_view("voice") == used).all()
        assert preemptor.preempted_total == 0

    def test_soft_rt_victims_rank_below_hard_rt(self):
        cfg = ring_cfg()
        controller = make_controller(cfg)
        fill(controller, ("r0", "r2"), 2, "soft_rt", "s")
        fill(controller, ("r0", "r2"), 1, "elastic", "e")
        preemptor = Preemptor(controller)
        outcome = preemptor.try_admit(
            FlowSpec("h0", "voice", "r0", "r2", priority="hard_rt")
        )
        assert outcome.admitted
        # The elastic flow is strictly lower-ranked than the soft_rt
        # pair, so it is sacrificed first.
        assert outcome.evicted == ("e0",)

    def test_ineligible_arrival_priority(self):
        cfg = ring_cfg()
        controller = make_controller(cfg)
        fill(controller, ("r0", "r2"), 3, "elastic", "e")
        preemptor = Preemptor(controller)
        outcome = preemptor.try_admit(
            FlowSpec("s0", "voice", "r0", "r2", priority="soft_rt")
        )
        assert not outcome.admitted
        assert outcome.reason == "priority not eligible"

    @pytest.mark.parametrize(
        "arrival, names",
        [
            (
                FlowSpec("h0", "voice", "r0", "r2", ("r0", "Nowhere", "r2"),
                         "hard_rt"),
                "'r0' -> 'Nowhere'",
            ),
            (
                FlowSpec("e0", "voice", "r0", "r2", priority="hard_rt"),
                "already established",
            ),
            (
                FlowSpec("h0", "video9", "r0", "r2", priority="hard_rt"),
                "unknown class",
            ),
        ],
    )
    def test_an_arrival_admit_would_refuse_is_an_outcome(
        self, arrival, names
    ):
        # The decision step calls try_admit unguarded: a request that
        # admit() raises for must come back as a failed outcome, before
        # any victim is released.
        controller = make_controller(ring_cfg())
        fill(controller, ("r0", "r2"), 3, "elastic", "e")
        outcome = Preemptor(controller).try_admit(arrival)
        assert not outcome.admitted and outcome.evicted == ()
        assert names in outcome.reason
        assert controller.num_established == 3
        assert controller.verify_invariants() == []

    def test_stale_rejection_readmits_without_sacrifice(self):
        # In a batched preemption pass every decision precedes any
        # eviction, so a flow can reach try_admit after an earlier
        # sacrifice already freed its route.  The preemptor must
        # re-admit plainly: no victims, no preemption counters.
        cfg = ring_cfg()
        controller = make_controller(cfg)
        preemptor = Preemptor(controller)
        outcome = preemptor.try_admit(
            FlowSpec("h0", "voice", "r0", "r2", priority="hard_rt")
        )
        assert outcome.admitted
        assert outcome.evicted == ()
        assert outcome.decision is not None
        assert controller.is_established("h0")
        assert preemptor.preempted_total == 0
        assert preemptor.preempted_admits == 0

    def test_blocked_route_is_not_preempted(self):
        cfg = ring_cfg()
        controller = make_controller(cfg)
        flows = fill(controller, ("r0", "r2"), 3, "elastic", "e")
        route = controller.committed_route(flows[0].flow_id)
        controller.block_servers(
            [int(s) for s in cfg.graph.route_servers(route)]
        )
        preemptor = Preemptor(controller)
        outcome = preemptor.try_admit(
            FlowSpec("h0", "voice", "r0", "r2", priority="hard_rt")
        )
        assert not outcome.admitted
        assert outcome.reason == "route crosses a blocked server"

    def test_degraded_ledger_deficit_needs_multiple_victims(self):
        # Under a governor rung the effective capacity shrinks below
        # current usage: admitting one hard flow then requires freeing
        # the whole overhang, not just one slot.
        cfg = ring_cfg()
        controller = make_controller(cfg)
        fill(controller, ("r0", "r2"), 3, "elastic", "e")
        controller.limit({"voice": 0.1 / 3})  # 3 slots -> 1 effective
        preemptor = Preemptor(controller)
        outcome = preemptor.try_admit(
            FlowSpec("h0", "voice", "r0", "r2", priority="hard_rt")
        )
        assert outcome.admitted
        assert set(outcome.evicted) == {"e0", "e1", "e2"}
        assert controller.is_established("h0")
        assert controller.verify_invariants() == []

    def test_max_victims_caps_the_plan(self, monkeypatch):
        cfg = ring_cfg()
        controller = make_controller(cfg)
        fill(controller, ("r0", "r2"), 3, "elastic", "e")
        controller.limit({"voice": 0.1 / 3})  # deficit of 3 per server
        monkeypatch.setattr(preempt, "MAX_VICTIMS", 2)
        preemptor = Preemptor(controller)
        before = {f.flow_id for f in controller.established_flows}
        outcome = preemptor.try_admit(
            FlowSpec("h0", "voice", "r0", "r2", priority="hard_rt")
        )
        assert not outcome.admitted
        assert outcome.evicted == ()
        assert {f.flow_id for f in controller.established_flows} == before


class TestBatchPreemptionAudit:
    def test_same_batch_victim_audit_replays(self, tmp_path):
        """A flow admitted and evicted by the *same* coalesced batch
        must appear in the audit log as admitted before its
        ``reason="preempted"`` release.

        The batch kernel decides every request before the preemption
        pass sacrifices anyone, so the victim's admit record must be
        written with the kernel's decisions and its eviction with the
        rescue sequence — otherwise replaying the log sees a release
        of a flow not yet established (the ordering bug the overload
        smoke caught).
        """
        import asyncio

        from repro.service import (
            AdmissionService,
            AsyncServiceClient,
            ServiceConfig,
        )
        from repro.service.audit import iter_audit, verify_audit

        cfg = ring_cfg()
        controller = make_controller(cfg)
        audit_path = str(tmp_path / "audit.jsonl")
        service = AdmissionService(
            controller,
            ServiceConfig(audit_path=audit_path),
            preemptor=Preemptor(controller),
        )

        async def run():
            await service.start_tcp("127.0.0.1", 0)
            client = await AsyncServiceClient.connect_tcp(
                "127.0.0.1", service.port
            )
            # Fill two of the three route slots in their own batches,
            # so the batch frame below finds exactly one slot: the
            # kernel admits the elastic arrival into it and rejects
            # the hard-RT one, and the preemption pass must then evict
            # the elastic flow admitted moments earlier in the same
            # batch (its id sorts before z0/z1 in the victim
            # tie-break).
            for i in range(2):
                decision = await client.admit(FlowSpec(
                    f"z{i}", "voice", "r0", "r2", priority="elastic",
                ))
                assert decision.admitted
            results = await client.batch([
                {"op": "admit", "flow": FlowSpec(
                    "a-victim", "voice", "r0", "r2",
                    priority="elastic",
                ).to_obj()},
                {"op": "admit", "flow": FlowSpec(
                    "rescued", "voice", "r0", "r2",
                    priority="hard_rt",
                ).to_obj()},
            ])
            await client.close()
            await service.drain()
            return results

        elastic_res, hard_res = asyncio.run(run())
        assert service.coalescer.largest_batch == 2, (
            "the frame was not decided as one batch"
        )
        assert elastic_res["result"]["admitted"]
        assert hard_res["result"]["admitted"]
        assert service.coalescer.preempted_admits == 1
        assert controller.is_established("rescued")
        assert not controller.is_established("a-victim")

        records = list(iter_audit(audit_path))
        report = verify_audit(records)
        assert report["ok"], report["problems"]
        assert report["preempted"] == 1
        ordered = [
            (r.get("kind"), r.get("flow_id") or r["flow"]["id"])
            for r in records
            if r.get("kind") in ("admit", "release")
        ]
        assert ordered.index(("admit", "a-victim")) < ordered.index(
            ("release", "a-victim")
        )
