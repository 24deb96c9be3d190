"""Bounded machine-checking of the admission safety argument.

Everything here runs on the exhaustive checker (the real controller,
the real batch kernel and the real preemptor) — no solver required.
"""

import pytest

from repro.admission.kernels import batch_slot_decisions_sequential
from repro.errors import VerificationError
from repro.verify import (
    CHECKS,
    VerifyBound,
    build_chain_controller,
    exhaustive_batch_equivalence,
    exhaustive_no_overcommit,
    exhaustive_preemption_safety,
    mutant_planner_ignores_protect,
    replay_batch_equivalence,
    replay_no_overcommit,
    replay_preemption_safety,
    select_checks,
    simulate_sequential,
)
from repro.verify.instances import kernel_slot_decisions

(EQUIVALENCE,) = select_checks(["batch_equivalence"])
KERNEL_MUTANTS = {
    name: planted["kernel"] for name, planted in EQUIVALENCE.mutants.items()
}

SMALL = VerifyBound(flows=2, servers=2, max_capacity=1)


class TestVerifyBound:
    def test_defaults_match_the_ci_bound(self):
        bound = VerifyBound()
        assert (bound.flows, bound.servers, bound.max_capacity) == (
            3, 2, 2,
        )
        assert bound.intervals == bound.flows

    def test_interval_routes_enumerates_all_contiguous_spans(self):
        routes = VerifyBound(servers=3).interval_routes()
        assert routes == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        ]

    def test_to_dict_round_trips_through_report_validation(self):
        d = SMALL.to_dict()
        assert d["intervals"] == d["flows"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"flows": 0},
            {"flows": 7},
            {"servers": 0},
            {"servers": 5},
            {"max_capacity": -1},
            {"max_capacity": 5},
        ],
    )
    def test_guard_rails(self, kwargs):
        with pytest.raises(VerificationError):
            VerifyBound(**kwargs)


class TestSequentialModel:
    def test_strict_rule_never_overcommits(self):
        verdicts, violations = simulate_sequential(
            [1, 1], [(0, 2), (0, 2), (0, 1)], [None, None, None]
        )
        assert verdicts == [True, False, False]
        assert violations == []

    def test_release_frees_the_slot(self):
        verdicts, violations = simulate_sequential(
            [1, 1], [(0, 2), (0, 2)], [1, None]
        )
        # Flow 0 departs right before arrival 1 is decided.
        assert verdicts == [True, True]
        assert violations == []

    def test_admit_on_full_mutant_violates(self):
        verdicts, violations = simulate_sequential(
            [0], [(0, 1)], [None], admit_on_full=True
        )
        assert verdicts == [True]
        assert violations == [(0, 0, 1, 0)]

    def test_slot_decisions_respect_negative_free(self):
        # Degraded ledgers can go negative; nothing may be admitted
        # through such a server.
        assert kernel_slot_decisions(
            batch_slot_decisions_sequential, [(0, 1), (1, 2)], [-1, 1]
        ) == [False, True]


class TestChainController:
    def test_real_controller_matches_the_model(self):
        capacities = (1, 2)
        routes = ((0, 2), (0, 2), (1, 2))
        expected, _ = simulate_sequential(
            capacities, routes, (None, None, None)
        )
        controller = build_chain_controller(2, capacities)
        from repro.traffic.flows import FlowSpec

        got = []
        for i, (lo, hi) in enumerate(routes):
            path = tuple(f"r{s}" for s in range(lo, hi + 1))
            decision = controller.admit(FlowSpec(
                flow_id=f"m{i}", class_name="voice",
                source=path[0], destination=path[-1], route=path,
            ))
            got.append(decision.admitted)
        assert got == expected
        assert controller.verify_invariants() == []


class TestExhaustiveBackend:
    def test_no_overcommit_passes_and_counts_instances(self):
        result = exhaustive_no_overcommit(SMALL)
        assert result.name == "no_overcommit"
        assert result.status == "passed"
        assert result.counterexample is None
        assert result.instances > 0

    def test_batch_equivalence_passes(self):
        result = exhaustive_batch_equivalence(SMALL)
        assert result.status == "passed"
        assert result.counterexample is None

    def test_admit_on_full_mutant_is_caught_and_replays(self):
        result = exhaustive_no_overcommit(SMALL, admit_on_full=True)
        assert result.status == "violated"
        cx = result.counterexample
        assert cx is not None
        replay = replay_no_overcommit(cx, admit_on_full=True)
        assert replay["reproduced"]
        assert replay["model_violations"]
        # The real controller replays the same trace clean: the bug
        # lives in the mutant rule, not in the shipped code.
        assert replay["controller_overcommits"] == []
        assert replay["controller_invariant_problems"] == []

    @pytest.mark.parametrize("mutant", sorted(KERNEL_MUTANTS))
    def test_kernel_mutants_split_from_sequential(self, mutant):
        result = exhaustive_batch_equivalence(
            SMALL, kernel=KERNEL_MUTANTS[mutant]
        )
        assert result.status == "violated"
        cx = result.counterexample
        assert cx is not None
        assert replay_batch_equivalence(
            cx, kernel=KERNEL_MUTANTS[mutant]
        )["reproduced"]
        # The real kernel agrees with the sequential reference on the
        # very same instance.
        assert not replay_batch_equivalence(cx)["reproduced"]

    def test_unfalsifiable_bound_is_an_error(self):
        # A single one-request batch cannot distinguish the
        # contention-blind kernel from the sequential loop; the
        # verifier must refuse to claim falsification.
        tiny = VerifyBound(flows=1, servers=1, max_capacity=1)
        with pytest.raises(VerificationError, match="bound"):
            exhaustive_batch_equivalence(
                tiny, kernel=KERNEL_MUTANTS["ignore_contention"]
            )


class TestPreemptionSafety:
    """Never a protected victim, all or nothing — on the
    real ``Preemptor``, with a planted planner the check must kill."""

    @pytest.mark.parametrize("bound", [SMALL, VerifyBound()])
    def test_real_preemptor_keeps_its_contract(self, bound):
        result = exhaustive_preemption_safety(bound)
        assert result.name == "preemption_safety"
        assert result.status == "passed"
        assert result.counterexample is None
        # capacities x routes x priorities of the established flows x
        # the two protect sets.
        assert result.instances == (
            (bound.max_capacity + 1) ** bound.servers
            * len(bound.interval_routes()) ** bound.flows
            * 4 ** (bound.flows - 1)
            * 2
        )

    def test_planner_that_ignores_protect_is_caught(self):
        result = exhaustive_preemption_safety(
            SMALL, mutant_planner_ignores_protect
        )
        assert result.status == "violated"
        cx = result.counterexample
        assert cx.check == "preemption_safety"
        assert "is protected by ('hard_rt', 'soft_rt')" in cx.detail
        assert cx.priorities[-1] == "hard_rt"
        assert "soft_rt" in cx.priorities[:-1]
        # The decoded instance breaks the mutant again and not the real
        # preemptor, and its trace replays its priorities.
        replay = replay_preemption_safety(
            cx, preemptor=mutant_planner_ignores_protect
        )
        assert replay["reproduced"]
        assert cx.detail in replay["problems"]
        assert replay_preemption_safety(cx) == {
            "problems": [], "reproduced": False,
        }
        arrivals = [
            e for e in cx.to_trace_events() if e.kind == "arrival"
        ]
        assert tuple(e.flow.priority for e in arrivals) == cx.priorities

    def test_unfalsifiable_bound_is_an_error(self):
        # With nothing established there is nobody to evict.
        tiny = VerifyBound(flows=1, servers=1, max_capacity=1)
        assert exhaustive_preemption_safety(tiny).status == "passed"
        with pytest.raises(VerificationError, match="bound"):
            exhaustive_preemption_safety(
                tiny, mutant_planner_ignores_protect
            )


class TestCounterexample:
    def cx(self):
        return exhaustive_no_overcommit(
            SMALL, admit_on_full=True
        ).counterexample

    def test_trace_events_are_replayable(self):
        from repro.workload import validate_adversarial_events

        events = self.cx().to_trace_events()
        validate_adversarial_events(events)
        arrivals = [e for e in events if e.kind == "arrival"]
        assert [e.time for e in arrivals] == [
            float(i + 1) for i in range(len(arrivals))
        ]
        assert all(e.route is not None for e in arrivals)


class TestRunner:
    """The table ``repro-ubac verify`` runs."""

    def test_every_row_catches_its_mutants_and_replays_them(self):
        for row in CHECKS:
            assert row.check(SMALL).status == "passed"
            for mutant in row.mutants:
                cx = row.check(SMALL, mutant).counterexample
                assert cx is not None and cx.check == row.name
                assert row.reproduces(cx, mutant)
                # ... and the shipped code does not break on it.
                assert not row.reproduces(cx)

    def test_mutant_run_reports_ok_when_caught(self):
        rows = select_checks(mutant="admit_on_full")
        assert [row.name for row in rows] == [
            "no_overcommit", "batch_equivalence",
        ]
        results = [row.check(SMALL, "admit_on_full") for row in rows]
        assert all(r.status == "violated" for r in results)

    def test_ignore_contention_skips_the_overcommit_check(self):
        rows = select_checks(mutant="ignore_contention")
        assert [row.name for row in rows] == ["batch_equivalence"]

    def test_default_selection_is_the_whole_table(self):
        assert select_checks() == CHECKS
        assert [row.name for row in CHECKS] == [
            "no_overcommit", "batch_equivalence", "preemption_safety",
        ]
        assert select_checks(["preemption_safety", "no_overcommit"]) == (
            CHECKS[0], CHECKS[2],
        )

    def test_unknown_inputs_rejected(self):
        with pytest.raises(VerificationError, match="unknown check"):
            select_checks(["nonsense"])
        with pytest.raises(VerificationError, match="unknown mutant"):
            select_checks(mutant="off_by_two")
        with pytest.raises(VerificationError, match="none of the checks"):
            select_checks(["no_overcommit"], mutant="ignore_contention")
