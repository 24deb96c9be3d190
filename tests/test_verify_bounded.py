"""Bounded machine-checking of the admission safety argument.

Everything here runs on the exhaustive backend (the real controller
and the real batch kernel) — no solver required.  The z3 twin of this
suite is ``tests/test_verify_smt.py``.
"""

import os

import pytest

from repro.errors import VerificationError
from repro.verify import (
    MUTANTS,
    Counterexample,
    VerifyBound,
    Z3_PIN,
    build_chain_controller,
    build_verify_report,
    exhaustive_batch_equivalence,
    exhaustive_no_overcommit,
    exhaustive_preemption_safety,
    load_verify_report,
    mutant_planner_ignores_protect,
    replay_batch_equivalence,
    replay_no_overcommit,
    run_verify,
    sequential_slot_decisions,
    simulate_sequential,
    validate_verify_report,
    write_verify_report,
)
from repro.verify.smt import HAVE_Z3, require_z3

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
        assert sequential_slot_decisions([(0, 1), (1, 2)], [-1, 1]) == [
            False, True,
        ]


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
        assert result.backend == "exhaustive"
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

    @pytest.mark.parametrize("mutant", sorted(MUTANTS))
    def test_kernel_mutants_split_from_sequential(self, mutant):
        result = exhaustive_batch_equivalence(
            SMALL, kernel=MUTANTS[mutant]
        )
        assert result.status == "violated"
        cx = result.counterexample
        assert cx is not None
        assert replay_batch_equivalence(
            cx, kernel=MUTANTS[mutant]
        )["diverged"]
        # The real kernel agrees with the sequential reference on the
        # very same instance.
        assert not replay_batch_equivalence(cx)["diverged"]

    def test_unfalsifiable_bound_is_an_error(self):
        # A single one-request batch cannot distinguish the
        # contention-blind kernel from the sequential loop; the
        # verifier must refuse to claim falsification.
        tiny = VerifyBound(flows=1, servers=1, max_capacity=1)
        with pytest.raises(VerificationError, match="bound"):
            exhaustive_batch_equivalence(
                tiny, kernel=MUTANTS["ignore_contention"]
            )


class TestPreemptionSafety:
    """ROADMAP 4(b): never a protected victim, all or nothing — on the
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
        # The instance survives a report round trip, priorities and all,
        # and its trace replays them.
        assert Counterexample.from_dict(cx.to_dict()) == cx
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

    def test_dict_round_trip(self):
        cx = self.cx()
        again = Counterexample.from_dict(cx.to_dict())
        assert again == cx

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
    def test_auto_backend_resolution(self):
        report, results = run_verify(SMALL, backend="auto")
        expected = "z3" if HAVE_Z3 else "exhaustive"
        assert report["backend"] == expected
        assert report["ok"] is True
        assert {r.name for r in results} == {
            "no_overcommit", "batch_equivalence",
        }

    def test_report_file_round_trip(self, tmp_path):
        report, _results = run_verify(SMALL, backend="exhaustive")
        path = str(tmp_path / "report.json")
        write_verify_report(path, report)
        loaded = load_verify_report(path)
        validate_verify_report(loaded)
        assert loaded == report

    def test_mutant_run_reports_ok_when_caught(self):
        report, results = run_verify(
            SMALL, backend="exhaustive", mutant="admit_on_full"
        )
        assert report["ok"] is True
        assert all(r.status == "violated" for r in results)

    def test_ignore_contention_skips_the_overcommit_check(self):
        _report, results = run_verify(
            SMALL, backend="exhaustive", mutant="ignore_contention"
        )
        assert [r.name for r in results] == ["batch_equivalence"]

    def test_unknown_inputs_rejected(self):
        with pytest.raises(VerificationError):
            run_verify(SMALL, backend="cvc5")
        with pytest.raises(VerificationError):
            run_verify(SMALL, checks=("nonsense",))
        with pytest.raises(VerificationError):
            run_verify(SMALL, checks=())
        with pytest.raises(VerificationError):
            run_verify(SMALL, mutant="off_by_two")

    def test_z3_backend_requires_the_solver(self):
        if HAVE_Z3:
            pytest.skip("z3 installed; the guard cannot fire")
        with pytest.raises(VerificationError, match="repro\\[smt\\]"):
            run_verify(SMALL, backend="z3")
        with pytest.raises(VerificationError):
            require_z3()


class TestReportValidation:
    def report(self):
        report, _ = run_verify(SMALL, backend="exhaustive")
        return report

    def test_tampered_schema_rejected(self):
        report = self.report()
        report["schema"] = "repro-verify-report/v0"
        with pytest.raises(VerificationError, match="schema"):
            validate_verify_report(report)

    def test_contradictory_ok_flag_rejected(self):
        report = self.report()
        report["ok"] = False
        with pytest.raises(VerificationError, match="ok"):
            validate_verify_report(report)

    def test_violated_check_without_counterexample_rejected(self):
        report, _ = run_verify(
            SMALL, backend="exhaustive", mutant="admit_on_full"
        )
        report["checks"][0]["counterexample"] = None
        with pytest.raises(VerificationError, match="counterexample"):
            validate_verify_report(report)

    def test_truncated_report_rejected(self):
        report = self.report()
        report["checks"] = []
        with pytest.raises(VerificationError):
            validate_verify_report(report)

    def test_empty_results_rejected(self):
        with pytest.raises(VerificationError):
            build_verify_report(SMALL, [], backend="exhaustive")


def test_z3_pin_matches_the_packaging_extra():
    """The CI job, the `smt` extra, and `Z3_PIN` must agree."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml")) as fh:
        pyproject = fh.read()
    assert f'z3-solver=={Z3_PIN}' in pyproject
    with open(
        os.path.join(root, ".github", "workflows", "ci.yml")
    ) as fh:
        workflow = fh.read()
    assert f"z3-solver=={Z3_PIN}" in workflow
